"""Exit threshold calibration, per-sample exit decisions, and span constraints.

A policy is a threshold plus the layers it may exit at. The threshold is
the midpoint of the dataset's per-layer mean-entropy extremes scaled by a
user ratio in [0,1]; a smaller ratio lowers the threshold and pushes exits
deeper. A decision scans the allowed layers in increasing order and exits
at the first one whose sequence entropy falls below the threshold, else is
forced out at the deepest allowed layer. `calibrate` allows every layer;
`constrain` is the one place a span (mean / threshold / min-max) is
decided, restricting the allowed layers at inference time from the exit
counts gathered while the downstream head trained. Only calibrated
policies are written to disk.

`run_exit` is the serving path: it forwards one sample lazily and decides
as it goes through `decide_exit`, which records an `ExitTrace`: the exit
layer, the entropies seen and whether the exit was forced. The layers
computed are the exit layer, since none past it is, so the trace does not
store them; `run_exit`'s computed states are exactly that many layers.
`decide_exits` is the same rule over a whole (N, layers) entropy table of
full forwards, vectorized: two arrays, each row's exit layer and whether
it was forced, which are the exits `run_exit` gives. The offline passes
use it; `decide_exit` stays its oracle.

`ExitCounts`, checked once when built, is the one histogram of exit
layers; span statistics, eval records and the noise sweep derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .branches import BranchSet, EntropyProfile, entropy_from_hidden
from .encoder import Encoder, IncrementalForward
from .errors import ConfigError, FormatError

__all__ = [
    "SPAN_KINDS",
    "ExitPolicy",
    "ExitCounts",
    "ExitTrace",
    "calibrate",
    "decide_exit",
    "decide_exits",
    "run_exit",
    "constrain",
    "fixed_exit_policy",
    "save_policy",
    "load_policy",
]

SPAN_KINDS = ("unconstrained", "mean", "threshold", "minmax")


@dataclass(frozen=True)
class ExitPolicy:
    threshold: float  # entropy cutoff; exit fires when E < threshold
    ratio: float  # the scaling ratio the threshold was calibrated with
    num_layers: int
    span_kind: str = "unconstrained"  # the span's label in reports; `allowed` decides
    allowed: tuple[int, ...] | None = None  # layers that may exit, increasing; None: 1..L

    def __post_init__(self):
        if self.span_kind not in SPAN_KINDS:
            raise ConfigError(f"span kind must be one of {SPAN_KINDS}, got {self.span_kind!r}")
        if not self.threshold >= 0:
            raise ConfigError(f"threshold must be nonnegative, got {self.threshold}")
        if self.threshold == math.inf:  # every entropy is below it: every exit at layer 1
            raise ConfigError(f"threshold must be finite, got {self.threshold}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"ratio must be in [0,1], got {self.ratio}")
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be positive, got {self.num_layers}")
        if self.allowed is None:
            object.__setattr__(self, "allowed", tuple(range(1, self.num_layers + 1)))
        if not self.allowed:
            raise ConfigError("policy allows no exit layers")
        bounds = (0, *self.allowed, self.num_layers + 1)
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ConfigError(
                f"allowed layers must be strictly increasing within 1..{self.num_layers}, "
                f"got {self.allowed}"
            )


@dataclass(frozen=True)
class ExitCounts:
    """How many samples exited at each layer; counts[k-1] is layer k.

    Every statistic is derived from the counts in exact integer arithmetic
    up to one final division, so it has the bits numpy gives from the exit
    vector itself.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ConfigError("exit counts cover no layers")
        for count in self.counts:
            if type(count) is not int or count < 0:  # refuses True and 2.0
                raise ConfigError(f"exit counts must be nonnegative integers, got {count!r}")
        if not any(self.counts):
            raise ConfigError("exit counts hold no samples")

    @classmethod
    def of(cls, exits, num_layers: int) -> ExitCounts:
        """Bin exit layers, each in 1..num_layers."""
        exits = np.asarray(exits, dtype=np.int64)
        if exits.size and not 1 <= exits.min() <= exits.max() <= num_layers:
            raise ConfigError(
                f"exit layers must be in 1..{num_layers}, got {exits.min()}..{exits.max()}"
            )
        return cls(tuple(np.bincount(exits, minlength=num_layers + 1)[1:].tolist()))

    @property
    def num_samples(self) -> int:
        return sum(self.counts)

    @property
    def layer_sum(self) -> int:
        """The sum of every sample's exit layer."""
        return sum(k * c for k, c in enumerate(self.counts, start=1))

    @property
    def fractions(self) -> tuple[float, ...]:
        n = self.num_samples
        return tuple(c / n for c in self.counts)

    @property
    def mean(self) -> float:
        return self.layer_sum / self.num_samples

    @property
    def first(self) -> int:
        """The shallowest layer any sample exited at."""
        return min(k for k, c in enumerate(self.counts, start=1) if c)

    @property
    def last(self) -> int:
        """The deepest layer any sample exited at."""
        return max(k for k, c in enumerate(self.counts, start=1) if c)


@dataclass(frozen=True)
class ExitTrace:
    """One sample's exit decision: where it left and what it saw.

    What it cost is the exit layer: no layer past it is computed.
    """

    exit_layer: int
    entropies: dict[int, float]  # layer -> sequence entropy, evaluated layers only
    forced: bool


def calibrate(profile: EntropyProfile, ratio: float) -> ExitPolicy:
    """Threshold = midpoint of the profile's extreme per-layer means, scaled by ratio."""
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"ratio must be in [0,1], got {ratio}")
    threshold = (profile.max_mean + profile.min_mean) / 2.0 * ratio
    return ExitPolicy(threshold=threshold, ratio=ratio, num_layers=profile.num_layers)


def decide_exit(policy: ExitPolicy, entropy_at: Callable[[int], float]) -> ExitTrace:
    """Scan allowed layers in increasing order; exit at the first entropy below threshold.

    If no allowed layer fires, the exit is forced at the deepest allowed
    layer. entropy_at is only called for allowed layers, and never for a
    layer deeper than the returned exit.
    """
    allowed = policy.allowed
    entropies: dict[int, float] = {}
    for k in allowed:
        e = float(entropy_at(k))
        entropies[k] = e
        if e < policy.threshold:
            return ExitTrace(exit_layer=k, entropies=entropies, forced=False)
    return ExitTrace(exit_layer=allowed[-1], entropies=entropies, forced=True)


def decide_exits(policy: ExitPolicy, entropies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`decide_exit` over each row of an (N, num_layers) entropy table, at once.

    Returns the int64 exit layer and the bool forced flag of every row: the
    first allowed layer whose entropy is strictly below the threshold, else
    the deepest allowed layer, forced. A row gives the exit `run_exit` gives
    for the sample whose full forward it was computed from; the branches it
    evaluated are `np.searchsorted(policy.allowed, exits, side="right")`.
    """
    entropies = np.asarray(entropies, dtype=np.float64)
    if entropies.ndim != 2 or entropies.shape[1] != policy.num_layers:
        raise ConfigError(
            f"policy is for {policy.num_layers} layers, the entropy table is {entropies.shape}"
        )
    allowed = np.array(policy.allowed, dtype=np.int64)
    fires = entropies[:, allowed - 1] < policy.threshold
    forced = ~fires.any(axis=1)
    exits = np.where(forced, allowed[-1], allowed[fires.argmax(axis=1)])
    return exits, forced


def run_exit(
    enc: Encoder, branches: BranchSet, policy: ExitPolicy, frames: np.ndarray
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
    trace = decide_exit(policy, lambda k: entropy_from_hidden(branches, inc.hidden(k), k))
    return inc.states(), trace


def constrain(
    policy: ExitPolicy,
    span_kind: str,
    stats: ExitCounts,
    rate_cutoff: float = 0.15,
) -> ExitPolicy:
    """Restrict where the policy may exit, from the downstream-training exit counts.

    The span decides the allowed layers: mean allows floor(mean)..ceil(mean),
    threshold every layer whose exit fraction exceeds rate_cutoff, minmax
    first..last, and unconstrained every layer. The threshold and ratio are
    unchanged; changing the ratio is done by re-calibrating before
    constraining.
    """
    num_layers = policy.num_layers
    if len(stats.counts) != num_layers:
        raise ConfigError(f"exit counts cover {len(stats.counts)} layers, policy has {num_layers}")
    if span_kind == "unconstrained":
        allowed = tuple(range(1, num_layers + 1))
    elif span_kind == "mean":
        allowed = tuple(range(math.floor(stats.mean), math.ceil(stats.mean) + 1))
    elif span_kind == "threshold":
        if not 0.0 < rate_cutoff < 1.0:
            raise ConfigError(f"rate_cutoff must be in (0,1), got {rate_cutoff}")
        allowed = tuple(
            k for k, rate in enumerate(stats.fractions, start=1) if rate > rate_cutoff
        )
        if not allowed:
            raise ConfigError(
                f"no layer's exit rate exceeds the cutoff {rate_cutoff}; "
                "threshold span would be empty"
            )
    elif span_kind == "minmax":
        allowed = tuple(range(stats.first, stats.last + 1))
    else:
        raise ConfigError(f"span kind must be one of {SPAN_KINDS}, got {span_kind!r}")
    return replace(policy, span_kind=span_kind, allowed=allowed)


def fixed_exit_policy(layer: int, num_layers: int) -> ExitPolicy:
    """A policy that always exits at one layer; the static-truncation twin."""
    return ExitPolicy(
        threshold=0.0, ratio=0.0, num_layers=num_layers, span_kind="minmax", allowed=(layer,)
    )


# policy.txt's keys in file order: key -> (the ExitPolicy field it holds, its type).
_POLICY_KEYS = {
    "threshold": ("threshold", float),
    "ratio": ("ratio", float),
    "num_layers": ("num_layers", int),
    "span": ("span_kind", str),
}


def save_policy(policy: ExitPolicy, path: str | Path) -> None:
    """Write a calibrated policy as a human-readable key-value file.

    Spans are decided at inference by `constrain`, so a constrained policy
    is refused rather than stored. A float is written as its repr, which
    reads back bit-exact.
    """
    if policy != ExitPolicy(policy.threshold, policy.ratio, policy.num_layers):
        raise ConfigError(
            f"only a calibrated policy is saved, got span {policy.span_kind!r} "
            f"allowing layers {policy.allowed}"
        )
    lines = [f"{key} = {kind(getattr(policy, attr))}" for key, (attr, kind) in _POLICY_KEYS.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_policy(path: str | Path) -> ExitPolicy:
    """The calibrated policy in `path`; every error starts with the file's name.

    Each line is `key = value` for one of the keys `save_policy` writes,
    each key at most once; `span` may be left out.
    """
    path = Path(path)
    try:
        return _policy_from_lines(path.read_text().splitlines())
    except (ConfigError, FormatError) as err:
        raise type(err)(f"{path.name}: {err}") from err


def _policy_from_lines(lines: list[str]) -> ExitPolicy:
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise FormatError(f"line {lineno} is not 'key = value': {line!r}")
        if key not in _POLICY_KEYS:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        attr, kind = _POLICY_KEYS[key]
        if attr in values:
            raise FormatError(f"line {lineno}: repeated key {key!r}")
        try:
            values[attr] = kind(value)
        except ValueError:
            raise FormatError(f"line {lineno}: cannot parse {key} from {value!r}") from None
    for key, (attr, _) in _POLICY_KEYS.items():
        if key != "span" and attr not in values:
            raise FormatError(f"missing key {key!r}")
    span_kind = values.get("span_kind", "unconstrained")
    if span_kind != "unconstrained":
        raise FormatError(
            f"span must be 'unconstrained' (spans are applied at inference), got {span_kind!r}"
        )
    return ExitPolicy(**values)
