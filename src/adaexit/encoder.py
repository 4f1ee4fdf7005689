"""Small frozen transformer encoder with per-layer hidden states and lazy forward.

The stack is pre-norm (self-attention and feed-forward sublayers with
residuals), bidirectional attention, sinusoidal positions, and an input
projection. Parameters are drawn deterministically from a seed and never
trained; the lazy forward mode computes blocks one at a time so an exit
decision can stop the pass early. A sample's computed layers are one
float32 (layers, frames, model_dim) array whose row k-1 is layer k. The
early-exit correctness core is the prefix property: stopping at layer k
yields hidden states bit-identical to the first k rows of the full pass.

Two paths share one embedding and one block function over
(..., frames, model_dim): `IncrementalForward`, the per-sample serving
path, and `forward_batch`, the full pass over a batch that every
whole-dataset pass runs in chunks of FORWARD_CHUNK sequences. Each matrix
product loops over the leading dims with one (frames, .) product, so the
batch is invariant: a sample's layers do not depend on what shares its
batch, and equal the per-sample pass bit for bit. So the chunks of a pass
can run in any order on any thread: `map_chunks` runs them on every usable
CPU (`numeric.on_usable_cpus`), the caller's thread taking the first share.
A chunk's work calls only untraced code (the embedding, the blocks, branch
entropies and numpy), never a public entry point such as `forward_all`.

Each parameter array's shape is declared once, in `EncoderConfig`
dimensions, in its field's metadata; `init_encoder` draws and the
checkpoint reader reads by `Encoder.shapes` and `BlockParams.shapes`.
The embedding computes in float64 from `Encoder.f64` (the input
projection, and the positions, derived from the config, not stored) and
a block from its own float64 arrays, `BlockParams.f64`, each cast once
on first use and kept (blocks with equal arrays, as in an encoder
redrawn from its seed or reloaded from its checkpoint, share one copy);
the checkpoint, `parameter_arrays` and `parameter_digest` see only the
float32 fields.
Q, K and V are one stacked (3d, d) weight, so attention runs one
(frames, d) @ (d, 3d) product and takes Q, K and V as views of it. The
blocks call numeric's unvalidated cores, `layer_norm64` and `softmax64`:
their operands are finite by construction, since the input is checked here
and a checkpoint refuses non-finite arrays.

`hidden_state_cache` is every layer of every sequence of a dataset, the one
(num_layers, N, frames, model_dim) cache that the teacher, the branches and
the downstream head train on.

An encoder is frozen, so what it derives from a dataset is fixed, and it
keeps that on itself (`Encoder.kept`, a `KeptArrays`), as it keeps
`Encoder.f64`: the hidden-state cache of the last dataset it forwarded
whole (N·L·T·d float32: 8.2 MB at perfbench's serve config, 131 MB at the
default), until another dataset's cache replaces it or
`probe.train_downstream`, its last reader, takes it to normalize in place;
and the (N, L) float64 entropy table of every (inputs, branches) pair
computed on it (`branches.entropy_table`, `probe.build_layer_table`), for
the encoder's lifetime. Each is read-only and keyed by SHA-256 digests of
the input bytes and, for a table, of the branch arrays; a mismatch (inputs
edited in place, other branches, another encoder object, such as one made
by `dataclasses.replace`) recomputes. Nothing is kept process-wide, and
only the caller's thread touches the kept arrays, never `map_chunks` work.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .numeric import DTYPE, layer_norm64, new_rng, on_usable_cpus, softmax64

__all__ = [
    "EncoderConfig",
    "BlockParams",
    "Encoder",
    "IncrementalForward",
    "init_encoder",
    "FORWARD_CHUNK",
    "map_chunks",
    "forward_all",
    "embed_batch",
    "run_blocks",
    "forward_batch",
    "hidden_state_cache",
    "KeptArrays",
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


def _array(*dims: str):
    """A float32 parameter field whose shape is the named `EncoderConfig` dimensions."""
    return field(metadata={"shape": dims})


class _Arrays:
    @classmethod
    def shapes(cls, cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
        """Each parameter array's name and shape under `cfg`, in field (and checkpoint) order."""
        return {
            f.name: tuple(getattr(cfg, dim) for dim in f.metadata["shape"])
            for f in fields(cls)
            if "shape" in f.metadata
        }


@dataclass(frozen=True)
class BlockParams(_Arrays):
    """One block's parameters; the checkpoint stores them in field order."""

    attn_norm_gain: np.ndarray = _array("model_dim")
    attn_norm_bias: np.ndarray = _array("model_dim")
    q_weight: np.ndarray = _array("model_dim", "model_dim")
    q_bias: np.ndarray = _array("model_dim")
    k_weight: np.ndarray = _array("model_dim", "model_dim")
    k_bias: np.ndarray = _array("model_dim")
    v_weight: np.ndarray = _array("model_dim", "model_dim")
    v_bias: np.ndarray = _array("model_dim")
    out_weight: np.ndarray = _array("model_dim", "model_dim")
    out_bias: np.ndarray = _array("model_dim")
    ffn_norm_gain: np.ndarray = _array("model_dim")
    ffn_norm_bias: np.ndarray = _array("model_dim")
    ffn_in_weight: np.ndarray = _array("ffn_dim", "model_dim")
    ffn_in_bias: np.ndarray = _array("ffn_dim")
    ffn_out_weight: np.ndarray = _array("model_dim", "ffn_dim")
    ffn_out_bias: np.ndarray = _array("model_dim")

    @cached_property
    def f64(self) -> Block64:
        """The arrays `_block` computes with, cast to float64 on first use and kept.

        Derived data, not a field: the checkpoint, `parameter_arrays` and
        `parameter_digest` see the float32 arrays only, and a block built by
        `dataclasses.replace` derives its copy from its own arrays. The
        parameters are frozen: an in-place edit of a float32 array after the
        first forward is not seen. Blocks with equal arrays share one copy,
        kept while any of them holds it.
        """
        h = hashlib.sha256()
        for f in fields(self):
            a = getattr(self, f.name)
            h.update(f"{f.name}{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a))
        key = h.digest()
        shared = _SHARED_F64.get(key)
        if shared is None:
            shared = _SHARED_F64[key] = Block64.cast(self)
        return shared


@dataclass(frozen=True)
class Block64:
    """A block's arrays in float64; each weight is the transposed (in, out) view, for `x @ w`.

    Q, K and V are one projection: their (d, d) weights stacked into one
    (3d, d) matrix and their biases into one (3d,) vector, in that order.
    """

    attn_norm_gain: np.ndarray
    attn_norm_bias: np.ndarray
    qkv_weight: np.ndarray  # (model_dim, 3 * model_dim)
    qkv_bias: np.ndarray  # (3 * model_dim,)
    out_weight: np.ndarray
    out_bias: np.ndarray
    ffn_norm_gain: np.ndarray
    ffn_norm_bias: np.ndarray
    ffn_in_weight: np.ndarray
    ffn_in_bias: np.ndarray
    ffn_out_weight: np.ndarray
    ffn_out_bias: np.ndarray

    @classmethod
    def cast(cls, block: BlockParams) -> Block64:
        arrays = {f.name: getattr(block, f.name).astype(np.float64) for f in fields(block)}
        return cls(
            qkv_weight=np.concatenate([arrays.pop(f"{x}_weight") for x in "qkv"]).T,
            qkv_bias=np.concatenate([arrays.pop(f"{x}_bias") for x in "qkv"]),
            **{name: a.T if name.endswith("_weight") else a for name, a in arrays.items()},
        )


# Every encoder drawn from one seed or loaded from one checkpoint has the same
# blocks, and a process may hold several at once: serving set-up trains a new
# model while the old one still serves. Keyed by a SHA-256 of a block's arrays.
_SHARED_F64: weakref.WeakValueDictionary[bytes, Block64] = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class Encoder(_Arrays):
    config: EncoderConfig
    input_weight: np.ndarray = _array("model_dim", "input_dim")
    input_bias: np.ndarray = _array("model_dim")
    blocks: tuple[BlockParams, ...]

    @cached_property
    def f64(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The embedding's float64 operands, made on first use and kept: derived data, not fields.

        The input weight as the transposed (input_dim, model_dim) view, the
        bias, and the sinusoidal positions (max_frames, model_dim) of this
        encoder's config, rounded to float32 and then widened.
        """
        cfg = self.config
        pos = np.arange(cfg.max_frames, dtype=np.float64)[:, None]
        idx = np.arange(cfg.model_dim, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / cfg.model_dim)
        positions = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle)).astype(DTYPE)
        weight, bias = self.input_weight.astype(np.float64).T, self.input_bias.astype(np.float64)
        return weight, bias, positions.astype(np.float64)

    @cached_property
    def kept(self) -> KeptArrays:
        """What this encoder derived from datasets (see the module docstring); empty at first."""
        return KeptArrays()

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameters in checkpoint order: input projection, then each block's fields."""
        arrays = [self.input_weight, self.input_bias]
        for block in self.blocks:
            arrays.extend(getattr(block, f.name) for f in fields(block))
        return arrays


# Sequences per batched forward in every whole-dataset pass. On a 2-core
# host with one BLAS thread and the default model size, forward plus branch
# entropies cost 2.1-2.2 ms a sequence in chunks of 8 to 32 (16 the lowest
# median), 2.5 ms at 48 and 3.0 ms at 64, as the float64 temporaries
# outgrow the cache. With the chunks on both cores (`map_chunks`), medians
# over 5 passes of 500 sequences: 1.36 ms at 8, 1.16 at 16, 1.17 at 32.
FORWARD_CHUNK = 16


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return (rng.standard_normal((fan_out, fan_in)) * std).astype(DTYPE)


def init_encoder(cfg: EncoderConfig) -> Encoder:
    """Build an encoder with deterministic parameters drawn from cfg.seed.

    The arrays are drawn in declaration order, the input projection first:
    a weight is Glorot-normal, a gain ones and a bias zeros. Residual output
    projections are scaled by 1/sqrt(2 * num_layers) so each block perturbs
    the stream gently and information accumulates gradually across depth
    instead of saturating in the first block.
    """
    rng = new_rng(cfg.seed)
    residual_scale = DTYPE(1.0 / np.sqrt(2.0 * cfg.num_layers))

    def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.endswith("_weight"):
            w = _glorot(rng, *shape)
            return w * residual_scale if name in ("out_weight", "ffn_out_weight") else w
        return (np.ones if name.endswith("_gain") else np.zeros)(shape, dtype=DTYPE)

    def draw_all(kind: type[_Arrays]) -> dict[str, np.ndarray]:
        return {name: draw(name, shape) for name, shape in kind.shapes(cfg).items()}

    projection = draw_all(Encoder)
    blocks = tuple(BlockParams(**draw_all(BlockParams)) for _ in range(cfg.num_layers))
    return Encoder(config=cfg, blocks=blocks, **projection)


def parameter_digest(enc: Encoder) -> str:
    """SHA-256 over all parameter bytes; used to verify freeze contracts."""
    h = hashlib.sha256()
    for arr in enc.parameter_arrays():
        h.update(np.ascontiguousarray(arr, dtype=DTYPE).tobytes())
    return h.hexdigest()


def _attention(a: np.ndarray, block: BlockParams, num_heads: int) -> np.ndarray:
    """Self-attention within each (frames, model_dim) matrix of a (..., frames, d) float64 stack."""
    *lead, frames, d = a.shape
    head_dim = d // num_heads
    p = block.f64
    qkv = a @ p.qkv_weight
    qkv += p.qkv_bias
    # Q, K and V are views of the one product, with heads a leading dim:
    # (..., frames, 3, heads, head_dim) -> (..., heads, 3, frames, head_dim).
    split = qkv.reshape(*lead, frames, 3, num_heads, head_dim).swapaxes(-4, -2)
    q, k, v = split[..., 0, :, :], split[..., 1, :, :], split[..., 2, :, :]
    scores = q @ k.swapaxes(-1, -2)
    scores /= math.sqrt(head_dim)
    weights = softmax64(scores, out=scores)
    ctx = (weights @ v).swapaxes(-3, -2).reshape(*lead, frames, d)
    out = ctx @ p.out_weight
    out += p.out_bias
    return out


def _block(stream: np.ndarray, block: BlockParams, num_heads: int) -> np.ndarray:
    """One block over a float32 stream (..., frames, model_dim); the float64 result.

    Every matrix product loops over the leading dims with one (frames, .)
    product each, so a sample's result does not depend on what it is
    stacked with: a batch's layers equal the single-sample ones bit for bit.
    The operands are the block's float64 arrays (`BlockParams.f64`), cast
    once per block, not once per call.
    """
    p = block.f64
    h64 = stream.astype(np.float64)
    h64 += _attention(layer_norm64(h64, p.attn_norm_gain, p.attn_norm_bias), block, num_heads)
    hid = layer_norm64(h64, p.ffn_norm_gain, p.ffn_norm_bias) @ p.ffn_in_weight
    hid += p.ffn_in_bias
    np.maximum(hid, 0.0, out=hid)
    h64 += hid @ p.ffn_out_weight
    h64 += p.ffn_out_bias
    return h64


def _embed(enc: Encoder, frames, batched: bool) -> np.ndarray:
    """The checked input, projected and position-encoded, float32 (..., frames, model_dim).

    A sample is (frames, input_dim); a batch stacks nonempty samples of one length.
    """
    x = np.asarray(frames)
    if x.ndim != (3 if batched else 2):
        shape = "a batch x frames x input_dim array" if batched else "a frames x input_dim matrix"
        raise ValueError(f"expected {shape}, got ndim={x.ndim}")
    *lead, t, d_in = x.shape
    cfg = enc.config
    if lead == [0]:
        raise ValueError("batch has zero sequences")
    if t == 0:
        raise ValueError("input has zero frames")
    if t > cfg.max_frames:
        raise ValueError(f"input has {t} frames, max_frames is {cfg.max_frames}")
    if d_in != cfg.input_dim:
        raise ValueError(f"input dim {d_in} does not match encoder input_dim {cfg.input_dim}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    weight, bias, positions = enc.f64
    embedded = x.astype(np.float64, copy=False) @ weight
    embedded += bias
    embedded += positions[:t]
    return embedded.astype(DTYPE)


class IncrementalForward:
    """Drives one sample through the stack block by block.

    The per-sample serving path: every lazy forward shares it, which is what
    makes truncated passes bit-identical to prefixes of the full pass. Its
    embedding and blocks are `forward_batch`'s, so a batch's rows equal it.
    """

    def __init__(self, enc: Encoder, frames: np.ndarray):
        self.enc = enc
        self._stream = _embed(enc, frames, batched=False)
        cfg = enc.config
        self._states = np.empty((cfg.num_layers, *self._stream.shape), dtype=DTYPE)
        self.layers_done = 0

    def hidden(self, k: int) -> np.ndarray:
        """Advance to layer k (1-based) if needed and return its hidden matrix, row k-1."""
        cfg = self.enc.config
        if not 1 <= k <= cfg.num_layers:
            raise ValueError(f"layer {k} out of range 1..{cfg.num_layers}")
        while self.layers_done < k:
            block = self.enc.blocks[self.layers_done]
            self._states[self.layers_done] = _block(self._stream, block, cfg.num_heads)
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


def embed_batch(enc: Encoder, inputs: np.ndarray) -> np.ndarray:
    """The checked, embedded batch (B, frames, input_dim) -> (B, frames, model_dim) float32.

    Refuses what `IncrementalForward` refuses, with the same messages, and
    an empty batch.
    """
    return _embed(enc, inputs, batched=True)


def run_blocks(enc: Encoder, stream: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Blocks 1..len(out) over an embedded batch, layer k written into out[k-1]; returns out.

    out is (layers, B, frames, model_dim) float32 and may be a view, such as
    a slice of a cache.
    """
    for layer, block in zip(out, enc.blocks):
        layer[...] = _block(stream, block, enc.config.num_heads)
        stream = layer
    return out


def forward_batch(enc: Encoder, inputs: np.ndarray) -> np.ndarray:
    """Full pass over a batch: (B, frames, input_dim) -> (num_layers, B, frames, model_dim).

    Sample b's layers, out[:, b], equal `forward_all(enc, inputs[b])` bit
    for bit, whatever else shares the batch.
    """
    stream = embed_batch(enc, inputs)
    out = np.empty((enc.config.num_layers, *stream.shape), dtype=DTYPE)
    return run_blocks(enc, stream, out)


def map_chunks(work, num_sequences: int) -> list:
    """`work(chunk)` for each FORWARD_CHUNK slice of range(num_sequences), in chunk order.

    The chunks run on every usable CPU (`numeric.on_usable_cpus`): the
    caller's thread takes chunks 0, s, 2s, ... of s shares. So `work` may
    write only its own chunk's rows of shared arrays, and must not call a
    traced entry point, since a tracer keeps one span stack. A failing pass
    raises the error of its first failing chunk, as the serial loop does.
    """
    return on_usable_cpus(
        work, [slice(lo, lo + FORWARD_CHUNK) for lo in range(0, num_sequences, FORWARD_CHUNK)]
    )


def _digest(*arrays: np.ndarray) -> bytes:
    """SHA-256 over each array's dtype, shape and bytes: the key of a kept array."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a))
    return h.digest()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class KeptArrays:
    """One encoder's hidden-state cache and entropy tables, each under digests of its sources.

    `branches` is a `branches.BranchSet`, keyed by its weights and biases.
    """

    def __init__(self):
        self._cache: tuple[bytes, np.ndarray] | None = None
        self._tables: dict[tuple[bytes, bytes], np.ndarray] = {}

    def cache(self, inputs: np.ndarray) -> np.ndarray | None:
        """The kept hidden-state cache if it is `inputs`' one; None otherwise. Builds nothing."""
        if self._cache is not None and self._cache[0] == _digest(inputs):
            return self._cache[1]
        return None

    def take_cache(self, inputs: np.ndarray) -> np.ndarray:
        """`inputs`' hidden-state cache off the encoder, writable: its taker may overwrite it."""
        cache = self.cache(inputs)
        if cache is None:
            raise ValueError("the encoder keeps no hidden-state cache of these inputs")
        self._cache = None
        cache.flags.writeable = True
        return cache

    def table(self, inputs: np.ndarray, branches) -> np.ndarray | None:
        """The kept entropy table of `inputs` under `branches`, or None. Builds nothing."""
        return self._tables.get(self._table_key(inputs, branches))

    def keep_table(self, inputs: np.ndarray, branches, table: np.ndarray) -> np.ndarray:
        """Keep `table` as the entropy table of `inputs` under `branches`; returns it, read-only."""
        self._tables[self._table_key(inputs, branches)] = _read_only(table)
        return table

    @staticmethod
    def _table_key(inputs, branches) -> tuple[bytes, bytes]:
        return _digest(inputs), _digest(branches.weights, branches.biases)


def hidden_state_cache(enc: Encoder, inputs: np.ndarray) -> np.ndarray:
    """Every layer of every sequence, (num_layers, N, frames, model_dim) float32, read-only.

    The encoder's kept cache when it is `inputs`' one. Otherwise batched
    forwards of FORWARD_CHUNK sequences (`map_chunks`), each chunk's layers
    written straight into a new cache, which replaces the kept one: the old
    cache is let go before the forward, so two are never held by the encoder.
    """
    kept = enc.kept
    cache = kept.cache(inputs)
    if cache is None:
        kept._cache = None
        num_sequences, frames = inputs.shape[:2]
        cfg = enc.config
        cache = np.empty((cfg.num_layers, num_sequences, frames, cfg.model_dim), dtype=DTYPE)
        map_chunks(
            lambda chunk: run_blocks(enc, embed_batch(enc, inputs[chunk]), cache[:, chunk]),
            num_sequences,
        )
        kept._cache = _digest(inputs), _read_only(cache)
    return cache
