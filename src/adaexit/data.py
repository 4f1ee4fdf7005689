"""Synthetic frame-classification datasets and controlled noise injection.

Sequences are Markov chains over classes rendered as prototype vectors with
Gaussian jitter. The ground-truth label of a frame is the majority class
inside a context window around it, so layers that aggregate context carry
more task information than the raw frame. Noise is added in feature space
at a controlled SNR; mixtures tag each sample with its noise level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .numeric import DTYPE, new_rng

__all__ = [
    "SynthDatasetSpec",
    "FrameDataset",
    "NoiseSpec",
    "MixtureSpec",
    "synth_dataset",
    "add_noise",
    "make_mixture",
    "largest_remainder_counts",
]

NOISE_KINDS = ("gaussian", "tonal")


@dataclass(frozen=True)
class SynthDatasetSpec:
    num_sequences: int = 2000
    frames: int = 32
    input_dim: int = 16
    num_classes: int = 32
    context_window: int = 9
    markov_self_prob: float = 0.9
    jitter_std: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name in ("num_sequences", "frames", "input_dim"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.context_window % 2 != 1:
            raise ConfigError(f"context_window must be odd, got {self.context_window}")
        if not 1 <= self.context_window <= self.frames:
            raise ConfigError(
                f"context_window must be in 1..frames ({self.frames}), got {self.context_window}"
            )
        if not 0.0 <= self.markov_self_prob <= 1.0:
            raise ConfigError(f"markov_self_prob must be in [0,1], got {self.markov_self_prob}")
        if self.jitter_std < 0:
            raise ConfigError(f"jitter_std must be nonnegative, got {self.jitter_std}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class FrameDataset:
    inputs: np.ndarray  # (N, T, input_dim) float32
    labels: np.ndarray  # (N, T) int32
    num_classes: int
    tags: tuple[str, ...] | None = None  # per-sample noise tag, set by make_mixture

    def __post_init__(self):
        if self.inputs.ndim != 3:
            raise ValueError(f"inputs must be (N, T, dim), got ndim={self.inputs.ndim}")
        if self.labels.shape != self.inputs.shape[:2]:
            raise ValueError(
                f"labels shape {self.labels.shape} does not match inputs {self.inputs.shape[:2]}"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")
        if self.tags is not None and len(self.tags) != self.inputs.shape[0]:
            raise ValueError("tags length does not match number of sequences")

    @property
    def num_sequences(self) -> int:
        return self.inputs.shape[0]

    @property
    def frames(self) -> int:
        return self.inputs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[2]

    def subset(self, indices) -> "FrameDataset":
        idx = np.asarray(indices, dtype=np.int64)
        tags = tuple(self.tags[i] for i in idx) if self.tags is not None else None
        return FrameDataset(
            inputs=self.inputs[idx].copy(),
            labels=self.labels[idx].copy(),
            num_classes=self.num_classes,
            tags=tags,
        )


@dataclass(frozen=True)
class NoiseSpec:
    snr_db: float | None  # None means clean
    kind: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.snr_db is not None and not np.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite or None, got {self.snr_db}")
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    def label(self) -> str:
        """The name reports and mixture tags give this noise level: `clean` or the SNR."""
        return "clean" if self.snr_db is None else f"{self.snr_db:g}"


@dataclass(frozen=True)
class MixtureSpec:
    parts: tuple[tuple[NoiseSpec, float], ...]

    def __post_init__(self):
        if not self.parts:
            raise ConfigError("mixture needs at least one part")
        fracs = [f for _, f in self.parts]
        if any(f < 0 for f in fracs):
            raise ConfigError("mixture fractions must be nonnegative")
        total = sum(fracs)
        if not abs(total - 1.0) <= 1e-6:  # NaN fails this too
            raise ConfigError(f"mixture fractions must sum to 1 within 1e-6, got {total}")


def _majority_window_labels(states: np.ndarray, num_classes: int, window: int) -> np.ndarray:
    """Per-frame majority class inside the (clipped) context window; ties take the lowest class."""
    n, t = states.shape
    half = window // 2
    labels = np.empty((n, t), dtype=np.int32)
    class_ids = np.arange(num_classes)
    for pos in range(t):
        lo = max(0, pos - half)
        hi = min(t, pos + half + 1)
        counts = (states[:, lo:hi, None] == class_ids[None, None, :]).sum(axis=1)
        labels[:, pos] = counts.argmax(axis=1)
    return labels


def synth_dataset(spec: SynthDatasetSpec) -> FrameDataset:
    """Draw a labeled dataset deterministically from spec.seed.

    Draw order is fixed: class prototypes, then the Markov state chains (one
    draw pair per time step), then the feature jitter.
    """
    rng = new_rng(spec.seed)
    n, t, c = spec.num_sequences, spec.frames, spec.num_classes
    prototypes = rng.standard_normal((c, spec.input_dim))
    states = np.empty((n, t), dtype=np.int32)
    states[:, 0] = rng.integers(0, c, size=n)
    for pos in range(1, t):
        stay = rng.random(n) < spec.markov_self_prob
        jump = rng.integers(0, c - 1, size=n)
        moved = (states[:, pos - 1] + 1 + jump) % c
        states[:, pos] = np.where(stay, states[:, pos - 1], moved)
    jitter = rng.standard_normal((n, t, spec.input_dim)) * spec.jitter_std
    inputs = (prototypes[states] + jitter).astype(DTYPE)
    labels = _majority_window_labels(states, c, spec.context_window)
    return FrameDataset(inputs=inputs, labels=labels, num_classes=c)


def _draw_noise(rng: np.random.Generator, kind: str, frames: int, dim: int) -> np.ndarray:
    if kind == "gaussian":
        return rng.standard_normal((frames, dim))
    # Structured tonal pattern: one random frequency per sequence, a random
    # phase per feature channel.
    freq = rng.uniform(0.05, 0.45)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    steps = np.arange(frames, dtype=np.float64)
    return np.sin(2.0 * np.pi * freq * steps[:, None] + phases[None, :])


def add_noise(data: FrameDataset, spec: NoiseSpec) -> FrameDataset:
    """Add noise per sequence, scaled so 10*log10(P_signal / P_noise) equals snr_db.

    Labels are unchanged. All-zero sequences have no defined SNR and are
    left clean with a warning.
    """
    if spec.snr_db is None:
        return replace(data, inputs=data.inputs.copy(), labels=data.labels.copy())
    rng = new_rng(spec.seed)
    power_ratio = 10.0 ** (spec.snr_db / 10.0)
    out = np.empty_like(data.inputs)
    for i in range(data.num_sequences):
        clean = data.inputs[i].astype(np.float64)
        signal_power = float((clean**2).sum())
        noise = _draw_noise(rng, spec.kind, data.frames, data.input_dim)
        if signal_power == 0.0:
            warnings.warn(
                f"sequence {i} is all zeros; SNR undefined, leaving it clean", stacklevel=2
            )
            out[i] = data.inputs[i]
            continue
        raw_power = float((noise**2).sum())
        scale = np.sqrt(signal_power / (power_ratio * raw_power))
        out[i] = (clean + scale * noise).astype(DTYPE)
    return replace(data, inputs=out, labels=data.labels.copy())


def largest_remainder_counts(total: int, fractions: list[float]) -> list[int]:
    """Integer partition of `total` by `fractions` using largest-remainder rounding."""
    quotas = [total * f for f in fractions]
    counts = [int(np.floor(q)) for q in quotas]
    leftover = total - sum(counts)
    remainders = sorted(
        range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in remainders[:leftover]:
        counts[i] += 1
    return counts


def make_mixture(data: FrameDataset, spec: MixtureSpec, seed: int) -> FrameDataset:
    """Partition samples by the mixture fractions and noise each partition.

    Assignment is a seeded permutation sliced by largest-remainder counts;
    sample order is preserved and each sample is tagged with its noise label.
    """
    n = data.num_sequences
    counts = largest_remainder_counts(n, [f for _, f in spec.parts])
    perm = new_rng(seed).permutation(n)
    inputs = data.inputs.copy()
    tags: list[str] = [""] * n
    start = 0
    for (noise_spec, _), count in zip(spec.parts, counts):
        idx = perm[start : start + count]
        start += count
        if count == 0:
            continue
        noised = add_noise(data.subset(idx), noise_spec)
        inputs[idx] = noised.inputs
        for j in idx:
            tags[j] = noise_spec.label()
    return FrameDataset(
        inputs=inputs,
        labels=data.labels.copy(),
        num_classes=data.num_classes,
        tags=tuple(tags),
    )
