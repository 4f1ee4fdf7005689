"""Small frozen transformer encoder with per-layer hidden states and lazy forward.

The stack is pre-norm (self-attention and feed-forward sublayers with
residuals), bidirectional attention, sinusoidal positions, and an input
projection. Parameters are drawn deterministically from a seed and never
trained; the lazy forward mode computes blocks one at a time so an exit
decision can stop the pass early. A sample's computed layers are one
float32 (layers, frames, model_dim) array whose row k-1 is layer k. The
early-exit correctness core is the prefix property: stopping at layer k
yields hidden states bit-identical to the first k rows of the full pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
import numpy as np

from .errors import ConfigError
from .numeric import DTYPE, layer_norm64, matmul64, new_rng, softmax64

__all__ = [
    "EncoderConfig",
    "BlockParams",
    "Encoder",
    "IncrementalForward",
    "init_encoder",
    "forward_all",
    "hidden_state_cache",
    "parameter_digest",
]


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 8
    model_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 128
    max_frames: int = 64
    input_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        counts = {
            "num_layers": self.num_layers,
            "model_dim": self.model_dim,
            "num_heads": self.num_heads,
            "ffn_dim": self.ffn_dim,
            "max_frames": self.max_frames,
            "input_dim": self.input_dim,
        }
        for name, value in counts.items():
            if int(value) <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.num_layers < 2:
            raise ConfigError(f"num_layers must be at least 2, got {self.num_layers}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class BlockParams:
    """One block's parameters; the checkpoint stores them in field order."""

    attn_norm_gain: np.ndarray
    attn_norm_bias: np.ndarray
    q_weight: np.ndarray
    q_bias: np.ndarray
    k_weight: np.ndarray
    k_bias: np.ndarray
    v_weight: np.ndarray
    v_bias: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray
    ffn_norm_gain: np.ndarray
    ffn_norm_bias: np.ndarray
    ffn_in_weight: np.ndarray
    ffn_in_bias: np.ndarray
    ffn_out_weight: np.ndarray
    ffn_out_bias: np.ndarray


@dataclass(frozen=True)
class Encoder:
    config: EncoderConfig
    input_weight: np.ndarray  # (model_dim, input_dim)
    input_bias: np.ndarray  # (model_dim,)
    blocks: tuple[BlockParams, ...]
    positional: np.ndarray  # (max_frames, model_dim), derived from config

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameters in checkpoint order: input projection, then each block's fields."""
        arrays = [self.input_weight, self.input_bias]
        for block in self.blocks:
            arrays.extend(getattr(block, f.name) for f in fields(block))
        return arrays


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return (rng.standard_normal((fan_out, fan_in)) * std).astype(DTYPE)


def _sinusoidal_positions(max_frames: int, dim: int) -> np.ndarray:
    pos = np.arange(max_frames, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    enc = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return enc.astype(DTYPE)


def init_encoder(cfg: EncoderConfig) -> Encoder:
    """Build an encoder with deterministic parameters drawn from cfg.seed.

    Residual output projections are scaled by 1/sqrt(2 * num_layers) so each
    block perturbs the stream gently and information accumulates gradually
    across depth instead of saturating in the first block.
    """
    d = cfg.model_dim
    rng = new_rng(cfg.seed)
    residual_scale = DTYPE(1.0 / np.sqrt(2.0 * cfg.num_layers))
    input_weight = _glorot(rng, d, cfg.input_dim)
    input_bias = np.zeros(d, dtype=DTYPE)
    blocks = []
    for _ in range(cfg.num_layers):
        blocks.append(
            BlockParams(
                attn_norm_gain=np.ones(d, dtype=DTYPE),
                attn_norm_bias=np.zeros(d, dtype=DTYPE),
                q_weight=_glorot(rng, d, d),
                q_bias=np.zeros(d, dtype=DTYPE),
                k_weight=_glorot(rng, d, d),
                k_bias=np.zeros(d, dtype=DTYPE),
                v_weight=_glorot(rng, d, d),
                v_bias=np.zeros(d, dtype=DTYPE),
                out_weight=_glorot(rng, d, d) * residual_scale,
                out_bias=np.zeros(d, dtype=DTYPE),
                ffn_norm_gain=np.ones(d, dtype=DTYPE),
                ffn_norm_bias=np.zeros(d, dtype=DTYPE),
                ffn_in_weight=_glorot(rng, cfg.ffn_dim, d),
                ffn_in_bias=np.zeros(cfg.ffn_dim, dtype=DTYPE),
                ffn_out_weight=_glorot(rng, d, cfg.ffn_dim) * residual_scale,
                ffn_out_bias=np.zeros(d, dtype=DTYPE),
            )
        )
    return Encoder(
        config=cfg,
        input_weight=input_weight,
        input_bias=input_bias,
        blocks=tuple(blocks),
        positional=_sinusoidal_positions(cfg.max_frames, d),
    )


def parameter_digest(enc: Encoder) -> str:
    """SHA-256 over all parameter bytes; used to verify freeze contracts."""
    h = hashlib.sha256()
    for arr in enc.parameter_arrays():
        h.update(np.ascontiguousarray(arr, dtype=DTYPE).tobytes())
    return h.hexdigest()


def _attention(a: np.ndarray, block: BlockParams, num_heads: int) -> np.ndarray:
    frames, d = a.shape
    head_dim = d // num_heads
    q = matmul64(a, block.q_weight.T) + block.q_bias.astype(np.float64)
    k = matmul64(a, block.k_weight.T) + block.k_bias.astype(np.float64)
    v = matmul64(a, block.v_weight.T) + block.v_bias.astype(np.float64)
    q = q.reshape(frames, num_heads, head_dim).transpose(1, 0, 2)
    k = k.reshape(frames, num_heads, head_dim).transpose(1, 0, 2)
    v = v.reshape(frames, num_heads, head_dim).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    weights = softmax64(scores, out=scores)
    ctx = (weights @ v).transpose(1, 0, 2).reshape(frames, d)
    return matmul64(ctx, block.out_weight.T) + block.out_bias.astype(np.float64)


class IncrementalForward:
    """Drives one sample through the stack block by block.

    All forward entry points share this path, which is what makes truncated
    passes bit-identical to prefixes of the full pass.
    """

    def __init__(self, enc: Encoder, frames: np.ndarray):
        x = np.asarray(frames)
        if x.ndim != 2:
            raise ValueError(f"expected a frames x input_dim matrix, got ndim={x.ndim}")
        t, d_in = x.shape
        cfg = enc.config
        if t == 0:
            raise ValueError("input has zero frames")
        if t > cfg.max_frames:
            raise ValueError(f"input has {t} frames, max_frames is {cfg.max_frames}")
        if d_in != cfg.input_dim:
            raise ValueError(f"input dim {d_in} does not match encoder input_dim {cfg.input_dim}")
        if not np.isfinite(x).all():
            raise ValueError("input contains non-finite entries")
        self.enc = enc
        embedded = matmul64(x, enc.input_weight.T) + enc.input_bias.astype(np.float64)
        embedded += enc.positional[:t].astype(np.float64)
        self._stream = embedded.astype(DTYPE)
        self._states = np.empty((cfg.num_layers, t, cfg.model_dim), dtype=DTYPE)
        self.layers_done = 0

    def hidden(self, k: int) -> np.ndarray:
        """Advance to layer k (1-based) if needed and return its hidden matrix, row k-1."""
        cfg = self.enc.config
        if not 1 <= k <= cfg.num_layers:
            raise ValueError(f"layer {k} out of range 1..{cfg.num_layers}")
        while self.layers_done < k:
            block = self.enc.blocks[self.layers_done]
            h64 = self._stream.astype(np.float64)
            attn_in = layer_norm64(h64, block.attn_norm_gain, block.attn_norm_bias)
            h64 = h64 + _attention(attn_in, block, cfg.num_heads)
            ffn_in = layer_norm64(h64, block.ffn_norm_gain, block.ffn_norm_bias)
            hid = matmul64(ffn_in, block.ffn_in_weight.T) + block.ffn_in_bias.astype(np.float64)
            np.maximum(hid, 0.0, out=hid)
            h64 = h64 + matmul64(hid, block.ffn_out_weight.T) + block.ffn_out_bias.astype(np.float64)
            self._states[self.layers_done] = h64
            self._stream = self._states[self.layers_done]
            self.layers_done += 1
        return self._states[k - 1]

    def states(self) -> np.ndarray:
        """The computed prefix, (layers_done, frames, model_dim); a view, not a copy."""
        return self._states[: self.layers_done]


def forward_all(enc: Encoder, frames: np.ndarray) -> np.ndarray:
    """Full pass: every layer's hidden matrix, (num_layers, frames, model_dim)."""
    inc = IncrementalForward(enc, frames)
    inc.hidden(enc.config.num_layers)
    return inc.states()


def hidden_state_cache(enc: Encoder, inputs: np.ndarray, layers) -> np.ndarray:
    """Layers `layers` (1-based) of every sequence, shape (len(layers), N, frames, model_dim).

    One forward per sequence, up to the deepest layer asked for.
    """
    num_sequences, frames = inputs.shape[:2]
    out = np.empty((len(layers), num_sequences, frames, enc.config.model_dim), dtype=DTYPE)
    for i in range(num_sequences):
        inc = IncrementalForward(enc, inputs[i])
        for h, k in enumerate(layers):
            out[h, i] = inc.hidden(k)
    return out
