"""End-to-end pipeline: dataset synthesis, three training stages, and reports.

`stages()` is the one list of stages, in run order, keyed by the command
that runs each; every stage is `stage(cfg, paths, enc=None)` and reads all
its settings from the config. Each entry also declares what its stage
reads: files and checkpoint sections, by their `ARTIFACTS` names. A stage
first loads and checks every declared input (`_inputs`), so a missing,
malformed or stale input fails by name, naming the command that writes it
(the earliest such command when several inputs fail), before the stage
computes anything. `run_pipeline` saves the config and
runs them all, each given the run's encoder, and the CLI builds one
subcommand per entry, each run with none.

A stage given the run's encoder uses it in place of the checkpoint's, or
of the one train-teacher draws, when their config and parameters are
equal. So the stages share what it keeps (`Encoder.kept`): the training
split's hidden-state cache, which the teacher, the branches and the
downstream head train on and train-downstream takes last, to normalize in
place; the training split's entropy table, which train-branches computes
for its profile and train-downstream decides its exits from; and eval's
held-out table, the noise sweep's clean level. A stage given none uses
the encoder it loads or draws.

Stage 1 trains the teacher and the exit branches; training the branches
also profiles per-layer entropy on the training split, from the cache it
trained on. Stage 2 calibrates the exit threshold at the configured ratio
from that profile, with no forward pass, and writes it to policy.txt for
serving; it then trains the downstream head with exits active under that
policy and no other, recording its exit counts per layer as the span
statistics. Stage 3 evaluates every requested span strategy at every
requested inference ratio. The noise sweep and the static comparison
reproduce the noise-adaptivity and mixed-noise analyses.

Every stage that needs a policy calibrates it in process from the training
profile that 'train-branches' wrote (entropy_profile_train.csv); no stage
reads policy.txt back, and none re-profiles the training split.
Re-running 'train-branches' removes policy.txt, calibrated from the old
profile, as it drops the downstream head. Every whole-dataset pass runs in
batched full-depth forwards (`encoder.forward_batch`). Eval and the static
comparison forward each sample of their dataset (the held-out split, the
noise mixture) once into a per-layer table and replay every policy over
it, the static baseline as the policy pinned to one layer; eval writes the
held-out profile from its table. The noise sweep replays one policy per
noise level over that level's entropy table (`branches.entropy_table`,
eval's for the clean level when the run's encoder keeps it), which gives the
exits `run_exit` would.

No stage reads a clock, so every file a stage writes is byte-deterministic
for a fixed config. `run_pipeline` times each stage and writes those wall
times to its timing file after the last stage, the one artifact excluded
from that guarantee.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from .branches import EntropyProfile, entropy_table, train_branches
from .data import (
    MixtureSpec,
    NoiseSpec,
    SynthDatasetSpec,
    add_noise,
    make_mixture,
    synth_dataset,
)
from .encoder import Encoder, EncoderConfig, init_encoder, parameter_digest
from .errors import ConfigError, DependencyError, FormatError
from .policy import (
    SPAN_KINDS,
    ExitCounts,
    ExitPolicy,
    calibrate,
    constrain,
    decide_exits,
    fixed_exit_policy,
    save_policy,
)
from .probe import (
    TASKS,
    build_layer_table,
    init_downstream_head,
    replay_evaluate,
    train_downstream,
)
from .serialize import (
    Checkpoint,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from .teacher import train_teacher

__all__ = [
    "RunConfig",
    "ARTIFACTS",
    "ArtifactPaths",
    "default_config",
    "load_config",
    "save_config",
    "apply_overrides",
    "stage_synth",
    "stage_teacher",
    "stage_branches",
    "stage_calibrate",
    "stage_downstream",
    "stage_eval",
    "noise_sweep",
    "compare_static",
    "stages",
    "run_pipeline",
]

# Scalar config fields: (names, test of a valid value, what a valid value is).
_SCALAR_RULES = (
    (("num_train", "num_eval", "teacher_batch", "branch_batch", "downstream_batch"),
     lambda v: v >= 1, "positive"),
    (("teacher_steps", "branch_steps", "downstream_steps", "train_seed"), lambda v: v >= 0,
     "nonnegative"),
    (("teacher_lr", "branch_lr", "downstream_lr"), lambda v: 0.0 <= v < math.inf,
     "finite and nonnegative"),
    (("ratio", "sweep_ratio"), lambda v: 0.0 <= v <= 1.0, "in [0,1]"),
    (("rate_cutoff",), lambda v: 0.0 < v < 1.0, "in (0,1)"),
)


def _key(section: str, default):
    """A RunConfig field stored under [section] of config.ini."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run; each field names its config.ini section."""

    num_train: int = _key("data", 2000)
    num_eval: int = _key("data", 600)
    frames: int = _key("data", 32)
    input_dim: int = _key("data", 16)
    num_classes: int = _key("data", 32)
    context_window: int = _key("data", 9)
    markov_self_prob: float = _key("data", 0.85)
    jitter_std: float = _key("data", 1.0)
    data_seed: int = _key("data", 101)
    num_layers: int = _key("encoder", 8)
    model_dim: int = _key("encoder", 64)
    num_heads: int = _key("encoder", 4)
    ffn_dim: int = _key("encoder", 128)
    max_frames: int = _key("encoder", 64)
    encoder_seed: int = _key("encoder", 103)
    teacher_lr: float = _key("teacher", 0.5)
    teacher_steps: int = _key("teacher", 1200)
    teacher_batch: int = _key("teacher", 32)
    branch_lr: float = _key("branches", 0.05)
    branch_steps: int = _key("branches", 4000)
    branch_batch: int = _key("branches", 32)
    ratio: float = _key("policy", 1.0)
    rate_cutoff: float = _key("policy", 0.15)
    downstream_lr: float = _key("downstream", 0.5)
    downstream_steps: int = _key("downstream", 1500)
    downstream_batch: int = _key("downstream", 32)
    task: str = _key("downstream", "frame")
    renormalize: bool = _key("downstream", True)
    train_seed: int = _key("train", 105)
    strategies: tuple[str, ...] = _key("eval", ("unconstrained", "mean", "threshold", "minmax"))
    eval_ratios: tuple[float, ...] = _key("eval", (1.0, 0.7))
    snr_levels: tuple[float, ...] = _key("eval", (10.0, 5.0, 0.0))
    sweep_ratio: float = _key("eval", 0.7)
    mixture_fractions: tuple[float, ...] = _key("eval", (0.4, 0.3, 0.2, 0.1))
    static_layer: int = _key("eval", 4)
    noise_kind: str = _key("eval", "gaussian")
    noise_seed: int = _key("eval", 107)

    def __post_init__(self):
        for names, valid, what in _SCALAR_RULES:
            for name in names:
                if not valid(getattr(self, name)):
                    raise ConfigError(f"{name} must be {what}, got {getattr(self, name)}")
        if self.frames > self.max_frames:
            raise ConfigError(
                f"frames must be at most max_frames ({self.max_frames}), got {self.frames}"
            )
        self.encoder_config()
        self.dataset_spec()
        if len(self.mixture_fractions) != len(self.snr_levels) + 1:
            raise ConfigError(
                "mixture_fractions must hold one fraction for clean plus one per "
                f"snr_levels entry, got {len(self.mixture_fractions)} fractions for "
                f"{len(self.snr_levels)} snr_levels"
            )
        if not 1 <= self.static_layer <= self.num_layers:
            raise ConfigError(
                f"static_layer must be in 1..{self.num_layers}, got {self.static_layer}"
            )
        unknown = [s for s in self.strategies if s not in SPAN_KINDS]
        if unknown:
            raise ConfigError(f"strategies must be among {SPAN_KINDS}, got {unknown}")
        bad = [r for r in self.eval_ratios if not 0.0 <= r <= 1.0]
        if bad:
            raise ConfigError(f"eval_ratios must be in [0,1], got {bad}")
        # Eval records are named `<strategy>_ratio<ratio:g>`; a shared name overwrites.
        clash = sorted({k for k in self.strategies if self.strategies.count(k) > 1})
        if clash:
            raise ConfigError(f"strategies must be distinct, got {clash} more than once")
        names = [f"{r:g}" for r in self.eval_ratios]
        clash = [r for r, name in zip(self.eval_ratios, names) if names.count(name) > 1]
        if clash:
            raise ConfigError(f"eval_ratios must differ in 6 significant digits, got {clash}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        self.mixture_spec()

    # Seed derivation: every stage draws from its own named stream.
    @property
    def teacher_seed(self) -> int:
        return self.train_seed + 1

    @property
    def branch_seed(self) -> int:
        return self.train_seed + 2

    @property
    def head_seed(self) -> int:
        return self.train_seed + 3

    @property
    def downstream_seed(self) -> int:
        return self.train_seed + 4

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            num_layers=self.num_layers,
            model_dim=self.model_dim,
            num_heads=self.num_heads,
            ffn_dim=self.ffn_dim,
            max_frames=self.max_frames,
            input_dim=self.input_dim,
            seed=self.encoder_seed,
        )

    def dataset_spec(self) -> SynthDatasetSpec:
        return SynthDatasetSpec(
            num_sequences=self.num_train + self.num_eval,
            frames=self.frames,
            input_dim=self.input_dim,
            num_classes=self.num_classes,
            context_window=self.context_window,
            markov_self_prob=self.markov_self_prob,
            jitter_std=self.jitter_std,
            seed=self.data_seed,
        )

    def mixture_spec(self) -> MixtureSpec:
        levels: list[float | None] = [None, *self.snr_levels]
        return MixtureSpec(
            parts=tuple(
                (NoiseSpec(snr_db=level, kind=self.noise_kind, seed=self.noise_seed), frac)
                for level, frac in zip(levels, self.mixture_fractions)
            )
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_SECTION_OF = {f.name: f.metadata["section"] for f in fields(RunConfig)}  # in field order


def default_config() -> RunConfig:
    return RunConfig()


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {name} from {raw!r}")
    if kind == "str":
        return raw
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if kind == "tuple[str, ...]":
        return tuple(parts)
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple[float, ...]":
            return tuple(float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"cannot parse {kind} {name} from {raw!r}") from None
    raise ConfigError(f"unhandled config field type for {name}: {kind}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_config(path: str | Path) -> RunConfig:
    """Read an INI config; keys absent from the file keep their defaults."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except configparser.Error as err:  # no section header, a repeated key, ...
        raise ConfigError(str(err)) from err
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for section in parser.sections():
        if section not in _SECTION_OF.values():
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if _SECTION_OF.get(key) != section:
                raise ConfigError(f"unknown config key [{section}] {key}")
            values[key] = _parse_value(key, parser.get(section, key))
    return RunConfig(**values)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    """Write every field under its section, in field order."""
    lines = []
    for section, names in groupby(_SECTION_OF, key=_SECTION_OF.get):
        lines.append(f"[{section}]")
        lines.extend(f"{name} = {_format_value(getattr(cfg, name))}" for name in names)
        lines.append("")
    Path(path).write_text("\n".join(lines))


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply "section.key=value" style overrides (CLI flags win over the file)."""
    updates = {}
    for dotted, raw in overrides.items():
        section, _, key = dotted.partition(".")
        if _SECTION_OF.get(key) != section:
            raise ConfigError(f"unknown config key {dotted!r}")
        updates[key] = _parse_value(key, raw)
    return replace(cfg, **updates)


# Artifact name -> (file or directory under the artifacts root, the command that writes it).
# "teacher", "branches" and "downstream" are the sections of checkpoint.bin past its encoder.
ARTIFACTS = {
    "config_file": ("config.ini", "pipeline"),
    "train_data": ("train_data.bin", "synth"),
    "eval_data": ("eval_data.bin", "synth"),
    "checkpoint": ("checkpoint.bin", "train-teacher"),
    "teacher": ("checkpoint.bin", "train-teacher"),
    "branches": ("checkpoint.bin", "train-branches"),
    "downstream": ("checkpoint.bin", "train-downstream"),
    "teacher_loss": ("teacher_loss.csv", "train-teacher"),
    "branch_loss": ("branch_loss.csv", "train-branches"),
    "profile_heldout": ("entropy_profile_heldout.csv", "eval"),
    "profile_train": ("entropy_profile_train.csv", "train-branches"),
    "policy_file": ("policy.txt", "calibrate"),
    "span_stats": ("span_stats.json", "train-downstream"),
    "exit_traces": ("exit_traces_train.csv", "train-downstream"),
    "downstream_loss": ("downstream_loss.csv", "train-downstream"),
    "metrics_dir": ("metrics", "eval"),
    "timing_file": ("timing.json", "pipeline"),
    "exit_distribution": ("exit_distribution.csv", "noise-sweep"),
    "exit_summary": ("exit_summary.csv", "noise-sweep"),
    "comparison_csv": ("comparison.csv", "compare-static"),
    "comparison_json": ("comparison.json", "compare-static"),
}


@dataclass(frozen=True)
class ArtifactPaths:
    """The artifacts directory; each name in `ARTIFACTS` is an attribute giving its path."""

    root: Path

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))

    def __getattr__(self, name: str) -> Path:
        if name not in ARTIFACTS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.root / ARTIFACTS[name][0]


def _write_json(path: Path, record) -> None:
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


_PROFILE_HEADER = "layer,mean_entropy"


def _write_profile(path: Path, profile) -> None:
    _write_csv(path, _PROFILE_HEADER, [(k + 1, repr(m)) for k, m in enumerate(profile.layer_means)])


def _run_encoder(enc: Encoder | None, own: Encoder) -> Encoder:
    """The run's encoder `enc` in place of `own` when their config and parameters are equal.

    The config too: its head count shapes the forward but draws no parameter.
    """
    if enc is None or enc.config != own.config:
        return own
    return enc if parameter_digest(enc) == parameter_digest(own) else own


def _load_checkpoint(cfg: RunConfig, paths: ArtifactPaths) -> Checkpoint:
    """The checkpoint, refused before any forward if its encoder is not the config's."""
    ck = load_checkpoint(paths.checkpoint)
    if ck.encoder.config != cfg.encoder_config():
        raise DependencyError(
            f"{paths.checkpoint.name} holds {ck.encoder.config}, "
            f"the config asks for {cfg.encoder_config()}"
        )
    return ck


def load_span_stats(cfg: RunConfig, paths: ArtifactPaths) -> ExitCounts:
    """The exit counts 'train-downstream' wrote, one per layer of this run."""
    path = paths.span_stats
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise FormatError(f"{path.name}: not JSON ({err})") from err
    values = raw.get("exit_counts") if isinstance(raw, dict) and len(raw) == 1 else None
    if not isinstance(values, list):
        raise FormatError(f'{path.name}: must be {{"exit_counts": [one count per layer]}}')
    try:
        counts = ExitCounts(tuple(values))
    except ConfigError as err:
        raise FormatError(f"{path.name}: {err}") from err
    if len(counts.counts) != cfg.num_layers:
        raise DependencyError(
            f"{path.name} has {len(counts.counts)} layers, the config has {cfg.num_layers}"
        )
    return counts


def _read_profile(cfg: RunConfig, paths: ArtifactPaths) -> EntropyProfile:
    """The training profile 'train-branches' wrote; its repr floats read back bit-exact.

    Line 1 must be the header; row k (line k + 1) must be `k,mean` with a
    finite, nonnegative mean.
    """
    path = paths.profile_train
    lines = path.read_text().splitlines() or [""]
    if lines[0] != _PROFILE_HEADER:
        raise FormatError(f"{path.name}: line 1 must be {_PROFILE_HEADER!r}, got {lines[0]!r}")
    means = []
    for k, line in enumerate(lines[1:], start=1):
        layer, _, raw = line.partition(",")
        try:
            mean = float(raw)
        except ValueError:
            mean = math.nan
        if layer != str(k) or not 0.0 <= mean < math.inf:
            raise FormatError(
                f"{path.name}: line {k + 1} must be '{k},<finite, nonnegative mean>', "
                f"got {line!r}"
            )
        means.append(mean)
    if len(means) != cfg.num_layers:
        raise DependencyError(
            f"{path.name} has {len(means)} layers, the config has {cfg.num_layers}"
        )
    return EntropyProfile.from_layer_means(means)


# Artifact name -> its reader, which loads the file; the readers of the checkpoint, the
# profile and the span statistics also check it against the config.
_READERS = {
    "train_data": lambda cfg, paths: load_dataset(paths.train_data),
    "eval_data": lambda cfg, paths: load_dataset(paths.eval_data),
    "checkpoint": _load_checkpoint,
    "profile_train": _read_profile,
    "span_stats": load_span_stats,
}


def _dataset_dims(num_sequences: int, cfg: RunConfig) -> dict:
    return {
        "num_sequences": num_sequences,
        "frames": cfg.frames,
        "input_dim": cfg.input_dim,
        "num_classes": cfg.num_classes,
    }


# Dataset or checkpoint section -> {attribute: the config's value}, its dimensions.
_DIMS = {
    "train_data": lambda cfg: _dataset_dims(cfg.num_train, cfg),
    "eval_data": lambda cfg: _dataset_dims(cfg.num_eval, cfg),
    "teacher": lambda cfg: {"num_classes": cfg.num_classes},
    "branches": lambda cfg: {"num_layers": cfg.num_layers, "num_classes": cfg.num_classes},
    "downstream": lambda cfg: {"num_layers": cfg.num_layers, "num_labels": cfg.num_classes},
}


def _show(dims: dict) -> str:
    return ", ".join(f"{dim}={value}" for dim, value in dims.items())


def _what(paths: ArtifactPaths, name: str) -> str:
    """An input as a message names it: its file, or a checkpoint section and the file."""
    path = getattr(paths, name)
    return path.name if name in _READERS else f"the {name} section of {path.name}"


def _inputs(cfg: RunConfig, paths: ArtifactPaths, command: str, enc: Encoder | None) -> list:
    """What `command` reads by its entry in `stages()`, loaded and checked, in that order.

    Each input's file must exist, or its writer is named; then the input is
    read and checked against the config, a dataset's or a section's
    dimensions by `_DIMS`. A checkpoint section, declared after
    "checkpoint", must be present, and its value is the section; every other
    section the checkpoint holds is checked too. All are checked before any
    is refused: the DependencyError is the one of the input whose writer
    comes first in `stages()`, so re-running that command is the next step
    whatever else is stale. Every refusal names that command: a reader's own
    DependencyError gains "; run '<writer>' again". So a stage whose inputs
    fail computes nothing. The checkpoint's encoder is `enc`, the run's,
    when their config and parameters are equal.
    """
    loaded, refusals = {}, []  # refusals: (the writer to re-run, the message)
    for name in stages()[command][1]:
        read, writer = _READERS.get(name), ARTIFACTS[name][1]
        if read is None and "checkpoint" not in loaded:
            continue  # the checkpoint itself is refused
        value = None
        if read is None:
            value = getattr(loaded["checkpoint"], name)
        elif getattr(paths, name).exists():
            try:
                value = read(cfg, paths)
            except DependencyError as err:  # the reader's check names no command
                refusals.append((writer, f"{err}; run {writer!r} again"))
                continue
        if value is None:
            refusals.append(
                (writer, f"stage {command!r} needs {_what(paths, name)}; run {writer!r} first")
            )
            continue
        loaded[name] = value
    ck = loaded.get("checkpoint")
    sections = [f.name for f in fields(Checkpoint) if f.name != "encoder"] if ck else []
    held = {name: getattr(ck, name) for name in sections if getattr(ck, name) is not None}
    for name, value in {**held, **loaded}.items():
        want = _DIMS[name](cfg) if name in _DIMS else {}
        dims = {dim: getattr(value, dim) for dim in want}
        if dims != want:
            writer = ARTIFACTS[name][1]
            refusals.append((writer, (
                f"{_what(paths, name)} holds {_show(dims)}, the config asks for {_show(want)}; "
                f"run {writer!r} again"
            )))
    if refusals:
        order = list(stages())
        raise DependencyError(min(refusals, key=lambda refusal: order.index(refusal[0]))[1])
    if ck:
        loaded["checkpoint"] = replace(ck, encoder=_run_encoder(enc, ck.encoder))
    return list(loaded.values())


def stage_synth(cfg: RunConfig, paths: ArtifactPaths, enc: Encoder | None = None) -> None:
    """Draw the full dataset once and split it into train and held-out files."""
    paths.root.mkdir(parents=True, exist_ok=True)
    full = synth_dataset(cfg.dataset_spec())
    save_dataset(full.subset(range(cfg.num_train)), paths.train_data)
    save_dataset(
        full.subset(range(cfg.num_train, cfg.num_train + cfg.num_eval)), paths.eval_data
    )


def stage_teacher(cfg: RunConfig, paths: ArtifactPaths, enc: Encoder | None = None) -> None:
    """Train the final-layer teacher head on the ground-truth labels (stage 1a)."""
    [train] = _inputs(cfg, paths, "train-teacher", enc)
    enc = _run_encoder(enc, init_encoder(cfg.encoder_config()))
    result = train_teacher(
        enc,
        train,
        lr=cfg.teacher_lr,
        steps=cfg.teacher_steps,
        seed=cfg.teacher_seed,
        batch_size=cfg.teacher_batch,
    )
    save_checkpoint(Checkpoint(encoder=enc, teacher=result.head), paths.checkpoint)
    _write_csv(
        paths.teacher_loss,
        "step,loss",
        [(i, repr(loss)) for i, loss in enumerate(result.losses)],
    )


def stage_branches(cfg: RunConfig, paths: ArtifactPaths, enc: Encoder | None = None) -> None:
    """Train the exit branches on pseudo-labels and profile the training split (stage 1b)."""
    train, ck, teacher = _inputs(cfg, paths, "train-branches", enc)
    result = train_branches(
        ck.encoder,
        teacher,
        train,
        lr=cfg.branch_lr,
        batch_size=cfg.branch_batch,
        steps=cfg.branch_steps,
        seed=cfg.branch_seed,
    )
    # A downstream head trained under the old branches is stale: drop it, as train-teacher
    # does, and the policy calibrated from the old profile with it.
    save_checkpoint(
        Checkpoint(encoder=ck.encoder, teacher=teacher, branches=result.branches),
        paths.checkpoint,
    )
    paths.policy_file.unlink(missing_ok=True)
    _write_csv(
        paths.branch_loss,
        "step,layer,loss",
        [(step, layer, repr(loss)) for step, layer, loss in result.loss_rows],
    )
    _write_profile(paths.profile_train, result.profile)


def stage_calibrate(
    cfg: RunConfig, paths: ArtifactPaths, enc: Encoder | None = None
) -> ExitPolicy:
    """Fix the threshold at the configured ratio from the training profile (stage 2a)."""
    *_, profile = _inputs(cfg, paths, "calibrate", enc)
    policy = calibrate(profile, cfg.ratio)
    save_policy(policy, paths.policy_file)
    return policy


def stage_downstream(cfg: RunConfig, paths: ArtifactPaths, enc: Encoder | None = None) -> None:
    """Train the downstream head with exits active, recording span statistics (stage 2b)."""
    train, ck, branches, profile = _inputs(cfg, paths, "train-downstream", enc)
    policy = calibrate(profile, cfg.ratio)
    head = init_downstream_head(
        cfg.num_layers, train.num_classes, cfg.model_dim, cfg.head_seed
    )
    # The run's last reader of the training cache: it takes it and normalizes it in place.
    result = train_downstream(
        ck.encoder,
        branches,
        policy,
        head,
        train,
        lr=cfg.downstream_lr,
        steps=cfg.downstream_steps,
        seed=cfg.downstream_seed,
        batch_size=cfg.downstream_batch,
        task=cfg.task,
        renormalize=cfg.renormalize,
    )
    save_checkpoint(replace(ck, downstream=result.head), paths.checkpoint)
    _write_json(paths.span_stats, {"exit_counts": list(result.span_stats.counts)})
    # A row's evaluated entropies are those of its allowed layers up to its exit.
    allowed = set(policy.allowed)
    rows = [
        [i, k, int(forced)]
        + [repr(e) if j in allowed and j <= k else "" for j, e in enumerate(row, start=1)]
        for i, (row, k, forced) in enumerate(
            zip(result.entropies.tolist(), result.exits.tolist(), result.forced.tolist())
        )
    ]
    entropy_cols = ",".join(f"e{k}" for k in range(1, cfg.num_layers + 1))
    _write_csv(paths.exit_traces, f"sample_id,exit_layer,forced,{entropy_cols}", rows)
    _write_csv(
        paths.downstream_loss,
        "step,loss",
        [(i, repr(loss)) for i, loss in enumerate(result.losses)],
    )


def stage_eval(cfg: RunConfig, paths: ArtifactPaths, enc: Encoder | None = None) -> dict:
    """Evaluate every (strategy, inference ratio) pair on the held-out split (stage 3).

    Span statistics always come from the training-time ratio; only the
    threshold is re-calibrated when the inference ratio differs. Every pair
    is replayed over one per-layer table of the held-out split, whose
    entropy rows also give the held-out profile.
    """
    heldout, ck, branches, head, profile, stats = _inputs(cfg, paths, "eval", enc)
    table = build_layer_table(ck.encoder, branches, heldout, head, cfg.task, cfg.renormalize)
    _write_profile(paths.profile_heldout, EntropyProfile.from_rows(table.entropies))
    paths.metrics_dir.mkdir(parents=True, exist_ok=True)
    # A record of an earlier run (a strategy since dropped, a pair now an error) must not linger.
    for pattern in ("eval_*.json", "exit_hist_*.csv"):
        for stale in paths.metrics_dir.glob(pattern):
            stale.unlink()
    summary = {}
    for ratio in cfg.eval_ratios:
        base = calibrate(profile, ratio)
        for strategy in cfg.strategies:
            name = f"{strategy}_ratio{ratio:g}"
            try:
                policy = constrain(base, strategy, stats, rate_cutoff=cfg.rate_cutoff)
            except ConfigError as err:
                summary[name] = {"error": str(err)}
                _write_json(paths.metrics_dir / f"eval_{name}.json", {"error": str(err)})
                continue
            record = replay_evaluate(table, policy)
            _write_json(paths.metrics_dir / f"eval_{name}.json", record)
            _write_csv(
                paths.metrics_dir / f"exit_hist_{name}.csv",
                "layer,count,fraction",
                record["exit_histogram"],
            )
            summary[name] = {
                "accuracy": record["accuracy"],
                "mean_exit_layer": record["mean_exit_layer"],
                "layer_compute_saved": record["layer_compute_saved"],
            }
    _write_json(paths.metrics_dir / "eval_summary.json", summary)
    return summary


def noise_sweep(cfg: RunConfig, paths: ArtifactPaths, enc: Encoder | None = None) -> list[dict]:
    """Exit-layer distribution per noise level of the mixture (clean first), at the sweep ratio.

    Uses the unconstrained policy so the full spread of exits is visible.
    Each noise level's branch entropies are one batched table of full
    forwards; `decide_exits` over it gives the exits `run_exit` would.
    Clean inputs are the held-out ones unchanged, so under `run_pipeline`
    the clean level's table is the one eval built.
    """
    heldout, ck, branches, profile = _inputs(cfg, paths, "noise-sweep", enc)
    policy = calibrate(profile, cfg.sweep_ratio)
    dist_rows = []
    summary_rows = []
    results = []
    for spec, _ in cfg.mixture_spec().parts:
        table = entropy_table(ck.encoder, branches, add_noise(heldout, spec).inputs)
        counts = ExitCounts.of(decide_exits(policy, table)[0], cfg.num_layers)
        label = spec.label()
        dist_rows.extend((label, k, repr(f)) for k, f in enumerate(counts.fractions, start=1))
        summary_rows.append((label, counts.first, repr(counts.mean), counts.last))
        results.append(
            {
                "snr": label,
                "mean_exit_layer": counts.mean,
                "min_exit_layer": counts.first,
                "max_exit_layer": counts.last,
                "fractions": list(counts.fractions),
            }
        )
    _write_csv(paths.exit_distribution, "snr,layer,fraction", dist_rows)
    _write_csv(paths.exit_summary, "snr,min_exit,mean_exit,max_exit", summary_rows)
    return results


def compare_static(
    cfg: RunConfig, paths: ArtifactPaths, enc: Encoder | None = None
) -> list[dict]:
    """Accuracy of each span strategy vs. a fixed-depth truncation on the noise mixture.

    One row per (strategy, noise level), plus "all" rows over the whole
    mixture. The static baseline is the policy pinned to `static_layer`,
    scored like the strategies, so its depth and compute saved sit
    alongside theirs. Every row is one policy replayed over one per-layer
    table of the mixture.
    """
    heldout, ck, branches, head, profile, stats = _inputs(cfg, paths, "compare-static", enc)
    base = calibrate(profile, cfg.ratio)
    mixture = cfg.mixture_spec()
    mixed = make_mixture(heldout, mixture, cfg.noise_seed + 1)
    table = build_layer_table(ck.encoder, branches, mixed, head, cfg.task, cfg.renormalize)
    tags = np.array(mixed.tags)
    groups: list[tuple[str, np.ndarray | None]] = [("all", None)]
    for spec, _ in mixture.parts:
        idx = np.where(tags == spec.label())[0]
        if idx.size:
            groups.append((spec.label(), idx))
    policies: list[tuple[str, ExitPolicy | ConfigError]] = []
    for strategy in cfg.strategies:
        try:
            policies.append(
                (strategy, constrain(base, strategy, stats, rate_cutoff=cfg.rate_cutoff))
            )
        except ConfigError as err:
            policies.append((strategy, err))
    static = cfg.static_layer
    policies.append((f"static-{static}", fixed_exit_policy(static, cfg.num_layers)))
    rows = []
    for name, policy in policies:
        if isinstance(policy, ConfigError):
            rows.append({"strategy": name, "noise_level": "all", "error": str(policy)})
            continue
        for label, idx in groups:
            record = replay_evaluate(table, policy, idx)
            rows.append(
                {
                    "strategy": name,
                    "noise_level": label,
                    "accuracy": record["accuracy"],
                    "mean_exit": record["mean_exit_layer"],
                    "compute_saved": record["layer_compute_saved"],
                }
            )
    _write_csv(
        paths.comparison_csv,
        "strategy,noise_level,accuracy,mean_exit,compute_saved",
        [
            (
                r["strategy"],
                r["noise_level"],
                repr(r["accuracy"]),
                repr(r["mean_exit"]),
                repr(r["compute_saved"]),
            )
            for r in rows
            if "error" not in r
        ],
    )
    _write_json(paths.comparison_json, rows)
    return rows


def stages() -> dict[str, tuple[Callable[..., object], tuple[str, ...]]]:
    """Command name -> (stage, the `ARTIFACTS` names it reads), in run order.

    The names are the one declaration of a stage's inputs; `_inputs` loads
    and checks them in this order. Built on each call from this module's
    attributes, so a stage patched onto the module (a tracer's wrapper, a
    test's counter) is the one run.
    """
    report = ("eval_data", "checkpoint", "branches", "downstream", "profile_train", "span_stats")
    return {
        "synth": (stage_synth, ()),
        "train-teacher": (stage_teacher, ("train_data",)),
        "train-branches": (stage_branches, ("train_data", "checkpoint", "teacher")),
        "calibrate": (stage_calibrate, ("checkpoint", "branches", "profile_train")),
        "train-downstream": (
            stage_downstream, ("train_data", "checkpoint", "branches", "profile_train")
        ),
        "eval": (stage_eval, report),
        "noise-sweep": (noise_sweep, ("eval_data", "checkpoint", "branches", "profile_train")),
        "compare-static": (compare_static, report),
    }


def run_pipeline(cfg: RunConfig, out_dir: str | Path) -> ArtifactPaths:
    """Save the config, then run every stage in order, printing each one's wall time.

    Every stage is given the run's encoder, drawn here from the config, and
    so shares its kept arrays: the training split is forwarded once for the
    teacher, the branches and the downstream head, and the sweep's clean
    level reuses eval's entropy table. The wall times, in seconds, of each
    stage and of the whole run go to timing.json after the last stage, in
    run order with "total" last.
    """
    paths = ArtifactPaths(Path(out_dir))
    paths.root.mkdir(parents=True, exist_ok=True)
    save_config(cfg, paths.config_file)
    started = time.perf_counter()
    enc = init_encoder(cfg.encoder_config())
    seconds = {}
    for name, (stage, _) in stages().items():
        t0 = time.perf_counter()
        stage(cfg, paths, enc)
        seconds[name] = time.perf_counter() - t0
        print(f"[pipeline] {name}: {seconds[name]:.1f}s")
    seconds["total"] = time.perf_counter() - started
    print(f"[pipeline] total {seconds['total']:.1f}s")
    paths.timing_file.write_text(json.dumps(seconds, indent=2) + "\n")
    return paths
