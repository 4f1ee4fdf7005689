"""Exit threshold calibration, per-sample exit decisions, and span constraints.

The threshold is the midpoint of the dataset's per-layer mean-entropy
extremes scaled by a user ratio in [0,1]; a smaller ratio lowers the
threshold and pushes exits deeper. A decision scans the allowed layers in
increasing order and exits at the first one whose sequence entropy falls
below the threshold, else is forced out at the deepest allowed layer.
Spans (mean / threshold / min-max) restrict the allowed set at inference
time from statistics gathered while the downstream head trained.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .branches import BranchSet, EntropyProfile, entropy_from_hidden
from .encoder import Encoder, IncrementalForward
from .errors import ConfigError, FormatError

__all__ = [
    "SPAN_KINDS",
    "ExitPolicy",
    "SpanStats",
    "ExitTrace",
    "calibrate",
    "decide_exit",
    "run_exit",
    "collect_span_stats",
    "constrain",
    "fixed_exit_policy",
    "save_policy",
    "load_policy",
]

SPAN_KINDS = ("unconstrained", "mean", "threshold", "minmax")

# The ExitPolicy fields each span kind sets; every other span field is None.
_SPAN_FIELDS = {
    "unconstrained": (),
    "mean": ("mean_exit",),
    "threshold": ("exit_rates", "rate_cutoff"),
    "minmax": ("min_exit", "max_exit"),
}


@dataclass(frozen=True)
class ExitPolicy:
    threshold: float  # entropy cutoff; exit fires when E < threshold
    ratio: float  # the scaling ratio the threshold was calibrated with
    num_layers: int
    span_kind: str = "unconstrained"
    mean_exit: float | None = None  # mean span
    exit_rates: tuple[float, ...] | None = None  # threshold span
    rate_cutoff: float | None = None
    min_exit: int | None = None  # minmax span
    max_exit: int | None = None

    def __post_init__(self):
        if self.span_kind not in SPAN_KINDS:
            raise ConfigError(f"span kind must be one of {SPAN_KINDS}, got {self.span_kind!r}")
        if not self.threshold >= 0:
            raise ConfigError(f"threshold must be nonnegative, got {self.threshold}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"ratio must be in [0,1], got {self.ratio}")
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be positive, got {self.num_layers}")
        if self.span_kind == "mean":
            if self.mean_exit is None or not 1.0 <= self.mean_exit <= self.num_layers:
                raise ConfigError(f"mean span needs mean_exit in [1, L], got {self.mean_exit}")
        elif self.span_kind == "threshold":
            if self.exit_rates is None or len(self.exit_rates) != self.num_layers:
                raise ConfigError("threshold span needs one exit rate per layer")
            if self.rate_cutoff is None or not 0.0 < self.rate_cutoff < 1.0:
                raise ConfigError(f"rate_cutoff must be in (0,1), got {self.rate_cutoff}")
        elif self.span_kind == "minmax":
            if (
                self.min_exit is None
                or self.max_exit is None
                or not 1 <= self.min_exit <= self.max_exit <= self.num_layers
            ):
                raise ConfigError(
                    f"minmax span needs 1 <= min <= max <= L, got "
                    f"({self.min_exit}, {self.max_exit})"
                )
        if not self.allowed_layers():
            raise ConfigError("policy allows no exit layers")

    def allowed_layers(self) -> tuple[int, ...]:
        """Layers that may exit, in increasing order. Never empty after construction."""
        if self.span_kind == "unconstrained":
            return tuple(range(1, self.num_layers + 1))
        if self.span_kind == "mean":
            lo = int(math.floor(self.mean_exit))
            hi = int(math.ceil(self.mean_exit))
            return tuple(range(lo, hi + 1))
        if self.span_kind == "threshold":
            return tuple(
                k for k, rate in enumerate(self.exit_rates, start=1) if rate > self.rate_cutoff
            )
        return tuple(range(self.min_exit, self.max_exit + 1))


@dataclass(frozen=True)
class SpanStats:
    """Exit statistics collected while the downstream head trained."""

    mean_exit: float
    exit_rates: tuple[float, ...]  # fraction of samples exiting at each layer, length L
    min_exit: int
    max_exit: int
    num_traces: int


@dataclass(frozen=True)
class ExitTrace:
    """One sample's exit decision: where it left, what it saw, what it cost."""

    sample_id: int
    exit_layer: int
    entropies: dict[int, float]  # layer -> sequence entropy, evaluated layers only
    layers_computed: int
    forced: bool


def calibrate(profile: EntropyProfile, ratio: float) -> ExitPolicy:
    """Threshold = midpoint of the profile's extreme per-layer means, scaled by ratio."""
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"ratio must be in [0,1], got {ratio}")
    threshold = (profile.max_mean + profile.min_mean) / 2.0 * ratio
    return ExitPolicy(threshold=threshold, ratio=ratio, num_layers=profile.num_layers)


def decide_exit(
    policy: ExitPolicy,
    entropy_at: Callable[[int], float],
    sample_id: int = 0,
) -> ExitTrace:
    """Scan allowed layers in increasing order; exit at the first entropy below threshold.

    If no allowed layer fires, the exit is forced at the deepest allowed
    layer. entropy_at is only called for allowed layers, and never for a
    layer deeper than the returned exit.
    """
    allowed = policy.allowed_layers()
    entropies: dict[int, float] = {}
    for k in allowed:
        e = float(entropy_at(k))
        entropies[k] = e
        if e < policy.threshold:
            return ExitTrace(
                sample_id=sample_id,
                exit_layer=k,
                entropies=entropies,
                layers_computed=k,
                forced=False,
            )
    deepest = allowed[-1]
    return ExitTrace(
        sample_id=sample_id,
        exit_layer=deepest,
        entropies=entropies,
        layers_computed=deepest,
        forced=True,
    )


def run_exit(
    enc: Encoder,
    branches: BranchSet,
    policy: ExitPolicy,
    frames: np.ndarray,
    sample_id: int = 0,
) -> tuple[np.ndarray, ExitTrace]:
    """Forward one sample lazily, deciding the exit from branch entropies.

    Layers below the first allowed layer are computed (the stream must pass
    through them) but their branches are never evaluated; no layer beyond
    the exit is computed at all. Returns the computed layers,
    (exit_layer, frames, model_dim), and the trace.
    """
    if policy.num_layers != enc.config.num_layers:
        raise ConfigError(
            f"policy is for {policy.num_layers} layers, encoder has {enc.config.num_layers}"
        )
    inc = IncrementalForward(enc, frames)
    trace = decide_exit(
        policy, lambda k: entropy_from_hidden(branches, inc.hidden(k), k), sample_id
    )
    trace = replace(trace, layers_computed=inc.layers_done)
    return inc.states(), trace


def collect_span_stats(traces: Sequence[ExitTrace], num_layers: int) -> SpanStats:
    """Mean / per-layer frequency / extremes of the exit layer over a set of traces."""
    if not traces:
        raise ValueError("no traces")
    exits = np.array([t.exit_layer for t in traces], dtype=np.int64)
    if exits.min() < 1 or exits.max() > num_layers:
        raise ValueError("trace exit layer out of range")
    counts = np.bincount(exits, minlength=num_layers + 1)[1:]
    rates = counts / len(traces)
    return SpanStats(
        mean_exit=float(exits.mean()),
        exit_rates=tuple(float(r) for r in rates),
        min_exit=int(exits.min()),
        max_exit=int(exits.max()),
        num_traces=len(traces),
    )


def constrain(
    policy: ExitPolicy,
    span_kind: str,
    stats: SpanStats,
    rate_cutoff: float = 0.15,
) -> ExitPolicy:
    """Restrict where the policy may exit, from downstream-training statistics.

    The threshold and ratio are unchanged; changing the ratio is done by
    re-calibrating before constraining. "unconstrained" clears every span field.
    """
    if span_kind not in SPAN_KINDS:
        raise ConfigError(f"span kind must be one of {SPAN_KINDS}, got {span_kind!r}")
    if span_kind == "threshold":
        if len(stats.exit_rates) != policy.num_layers:
            raise ConfigError(
                f"stats cover {len(stats.exit_rates)} layers, policy has {policy.num_layers}"
            )
        if not any(rate > rate_cutoff for rate in stats.exit_rates):
            raise ConfigError(
                f"no layer's exit rate exceeds the cutoff {rate_cutoff}; "
                "threshold span would be empty"
            )
    values = {**asdict(stats), "rate_cutoff": rate_cutoff}
    return replace(
        policy,
        span_kind=span_kind,
        **{
            name: values[name] if name in _SPAN_FIELDS[span_kind] else None
            for names in _SPAN_FIELDS.values()
            for name in names
        },
    )


def fixed_exit_policy(layer: int, num_layers: int) -> ExitPolicy:
    """A policy that always exits at one layer; the static-truncation twin."""
    return ExitPolicy(
        threshold=0.0,
        ratio=0.0,
        num_layers=num_layers,
        span_kind="minmax",
        min_exit=layer,
        max_exit=layer,
    )


def _format_float(x: float) -> str:
    return repr(float(x))


def save_policy(policy: ExitPolicy, path: str | Path) -> None:
    """Write the policy as a human-readable key-value file."""
    lines = [
        f"threshold = {_format_float(policy.threshold)}",
        f"ratio = {_format_float(policy.ratio)}",
        f"num_layers = {policy.num_layers}",
        f"span = {policy.span_kind}",
    ]
    if policy.span_kind == "mean":
        lines.append(f"mean_exit = {_format_float(policy.mean_exit)}")
    elif policy.span_kind == "threshold":
        lines.append("exit_rates = " + ",".join(_format_float(r) for r in policy.exit_rates))
        lines.append(f"rate_cutoff = {_format_float(policy.rate_cutoff)}")
    elif policy.span_kind == "minmax":
        lines.append(f"min_exit = {policy.min_exit}")
        lines.append(f"max_exit = {policy.max_exit}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_policy(path: str | Path) -> ExitPolicy:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"policy file line {lineno} is not 'key = value': {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        span_kind = fields.get("span", "unconstrained")
        policy = ExitPolicy(
            threshold=float(fields["threshold"]),
            ratio=float(fields["ratio"]),
            num_layers=int(fields["num_layers"]),
            span_kind=span_kind,
            mean_exit=float(fields["mean_exit"]) if span_kind == "mean" else None,
            exit_rates=(
                tuple(float(r) for r in fields["exit_rates"].split(","))
                if span_kind == "threshold"
                else None
            ),
            rate_cutoff=float(fields["rate_cutoff"]) if span_kind == "threshold" else None,
            min_exit=int(fields["min_exit"]) if span_kind == "minmax" else None,
            max_exit=int(fields["max_exit"]) if span_kind == "minmax" else None,
        )
    except KeyError as err:
        raise FormatError(f"policy file missing key {err.args[0]!r}") from err
    return policy
