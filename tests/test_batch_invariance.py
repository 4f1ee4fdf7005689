"""Batch invariance: the batched forward and entropy kernel against the per-sample path.

A sample's layers and branch entropies must not depend on the batch it is
computed in: its size, its order, or the other sequences in it. Each test
compares against `IncrementalForward` (through `forward_all`) and
`sample_entropies` bit for bit, on the small test encoder and on the
default-size one the pipeline runs.

Both paths also equal the reference kernels kept here bit for bit: an
embedding and a block with every parameter cast per call, the block with
three separate Q, K and V products, and a branch entropy through the
checked softmax and a where-masked log.
The encoder multiplies by C-ordered (in, out) float64 weights and the
reference by transposed views of (out, in) ones, and the fused QKV
product's bits rest on the kernel BLAS picks for its width; so the default
encoder is also checked at few frames, where single products by the two
layouts round differently on some kernels, and CI runs this file under two
more OpenBLAS core types.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from adaexit.branches import (
    BranchSet,
    batch_entropies,
    entropy_from_hidden,
    init_branches,
)
from adaexit.encoder import (
    FORWARD_CHUNK,
    BlockParams,
    EncoderConfig,
    IncrementalForward,
    _embed,
    embed_batch,
    forward_all,
    forward_batch,
    hidden_state_cache,
    init_encoder,
    parameter_digest,
)
from adaexit.numeric import entropy64, matmul64, running_mean, running_means, softmax, softmax64
from adaexit.serialize import Checkpoint, checkpoint_from_bytes, checkpoint_to_bytes

from conftest import SMALL_ENCODER, sample_entropies

BATCH_SIZES = (1, 7, 32)
FRAMES = 12


@pytest.fixture(scope="module", params=["small", "default"])
def enc(request):
    return init_encoder(SMALL_ENCODER if request.param == "small" else EncoderConfig())


@pytest.fixture(scope="module")
def branches(enc):
    cfg = enc.config
    rng = np.random.default_rng(77)
    return BranchSet(
        weights=(rng.standard_normal((cfg.num_layers, 9, cfg.model_dim)) * 0.5).astype(np.float32),
        biases=(rng.standard_normal((cfg.num_layers, 9)) * 0.1).astype(np.float32),
    )


def _batch(enc, rng, size):
    """`size` random sequences: 12 frames on the small encoder, the pipeline's 32 on the default."""
    frames = min(32, enc.config.max_frames - 4)
    return rng.standard_normal((size, frames, enc.config.input_dim)).astype(np.float32)


def _assert_rows_match_single(enc, branches, inputs):
    states = forward_batch(enc, inputs)
    entropies = batch_entropies(branches, states)
    assert states.shape == (enc.config.num_layers, *inputs.shape[:2], enc.config.model_dim)
    assert states.dtype == np.float32 and entropies.dtype == np.float64
    for b, x in enumerate(inputs):
        single = forward_all(enc, x)
        assert np.array_equal(states[:, b], single), b
        assert np.array_equal(entropies[b], sample_entropies(branches, single)), b
    return states, entropies


class TestForwardBatch:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_each_row_equals_the_single_sample_pass(self, enc, branches, size):
        _assert_rows_match_single(enc, branches, _batch(enc, np.random.default_rng(size), size))

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_shuffled_batch_permutes_the_rows(self, enc, branches, size):
        rng = np.random.default_rng(100 + size)
        inputs = _batch(enc, rng, size)
        states, entropies = _assert_rows_match_single(enc, branches, inputs)
        order = rng.permutation(size)
        shuffled = forward_batch(enc, inputs[order])
        assert np.array_equal(shuffled, states[:, order])
        assert np.array_equal(batch_entropies(branches, shuffled), entropies[order])

    def test_row_ignores_its_co_members(self, enc, branches):
        # One sample at every position of batches of other sequences, including
        # ones of far larger or smaller scale, gives the same bits each time.
        rng = np.random.default_rng(5)
        x = _batch(enc, rng, 1)
        alone = forward_batch(enc, x)[:, 0]
        alone_entropies = batch_entropies(branches, forward_batch(enc, x))[0]
        for scale in (1.0, 1e-3, 1e3):
            others = _batch(enc, rng, 6) * np.float32(scale)
            for position in (0, 3, 6):
                inputs = np.insert(others, position, x[0], axis=0)
                states = forward_batch(enc, inputs)
                assert np.array_equal(states[:, position], alone)
                entropies = batch_entropies(branches, states)
                assert np.array_equal(entropies[position], alone_entropies)

    def test_zero_branches_give_log_c_exactly(self, enc):
        # Uniform posteriors: every entropy is ln C, exactly, on both paths.
        c = 32
        zero = init_branches(enc.config.num_layers, c, enc.config.model_dim)
        inputs = _batch(enc, np.random.default_rng(9), 7)
        _, entropies = _assert_rows_match_single(enc, zero, inputs)
        assert (entropies == math.log(c)).all()

    def test_cache_across_chunk_boundaries(self, enc):
        inputs = _batch(enc, np.random.default_rng(11), FORWARD_CHUNK + 3)
        num_layers = enc.config.num_layers
        every = hidden_state_cache(enc, inputs)
        assert every.shape[0] == num_layers
        for i, x in enumerate(inputs):
            assert np.array_equal(every[:, i], forward_all(enc, x)), i


def _refusal(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


class TestForwardBatchRefusals:
    """`forward_batch` refuses each sample `IncrementalForward` refuses, with its message."""

    @pytest.mark.parametrize(
        "case",
        ["zero-frames", "too-many-frames", "input-dim", "nan", "inf"],
    )
    def test_same_message_as_the_single_sample_pass(self, case):
        enc = init_encoder(SMALL_ENCODER)
        cfg = enc.config
        rng = np.random.default_rng(3)
        frames, dim = {
            "zero-frames": (0, cfg.input_dim),
            "too-many-frames": (cfg.max_frames + 1, cfg.input_dim),
            "input-dim": (FRAMES, cfg.input_dim + 1),
        }.get(case, (FRAMES, cfg.input_dim))
        x = rng.standard_normal((frames, dim)).astype(np.float32)
        if case in ("nan", "inf"):
            x[frames // 2, 1] = np.nan if case == "nan" else np.inf
        single = _refusal(lambda: IncrementalForward(enc, x))
        good = rng.standard_normal((2, frames, dim)).astype(np.float32)
        batched = _refusal(lambda: forward_batch(enc, np.concatenate([good, x[None]])))
        assert batched == single

    def test_wrong_ndim_named(self):
        enc = init_encoder(SMALL_ENCODER)
        x = np.zeros((FRAMES, SMALL_ENCODER.input_dim), dtype=np.float32)
        assert _refusal(lambda: IncrementalForward(enc, x[None])).endswith("got ndim=3")
        assert _refusal(lambda: forward_batch(enc, x)) == (
            "expected a batch x frames x input_dim array, got ndim=2"
        )
        assert _refusal(lambda: forward_batch(enc, x[None, None])).endswith("got ndim=4")

    def test_empty_batch_rejected(self):
        enc = init_encoder(SMALL_ENCODER)
        empty = np.zeros((0, FRAMES, SMALL_ENCODER.input_dim), dtype=np.float32)
        assert _refusal(lambda: forward_batch(enc, empty)) == "batch has zero sequences"


class TestRunningMeans:
    def test_each_row_is_running_mean(self):
        rows = np.random.default_rng(2).random((5, 33)) * 4.0
        assert running_means(rows).tolist() == [running_mean(row) for row in rows]

    @pytest.mark.parametrize("shape", [(3,), (3, 0), (2, 3, 4)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a"):
            running_means(np.ones(shape))


# Reference kernels: the embedding, the block and the branch entropy as they
# were computed before their float64 arrays were cast once and Q, K and V fused.


def _reference_positions(max_frames, dim):
    pos = np.arange(max_frames, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle)).astype(np.float32)


def _reference_embed(enc, x):
    """The input projection and positions of a sample or a batch, every parameter cast per call."""
    cfg = enc.config
    positions = _reference_positions(cfg.max_frames, cfg.model_dim)
    embedded = matmul64(x, enc.input_weight.T) + enc.input_bias.astype(np.float64)
    embedded += positions[: x.shape[-2]].astype(np.float64)
    return embedded.astype(np.float32)


def _reference_layer_norm(x64, gain, bias, eps=1e-5):
    width = x64.shape[-1]
    c = x64 - x64.sum(axis=-1, keepdims=True) / width
    scale = (c * c).sum(axis=-1, keepdims=True) / width
    scale += eps
    np.sqrt(scale, out=scale)
    c /= scale
    c *= gain.astype(np.float64)
    c += bias.astype(np.float64)
    return c


def _reference_block(stream, block, num_heads):
    """One block with three separate Q, K and V products and every parameter cast per call."""

    def linear(x, weight, bias):
        return matmul64(x, weight.T) + bias.astype(np.float64)

    h64 = stream.astype(np.float64)
    a = _reference_layer_norm(h64, block.attn_norm_gain, block.attn_norm_bias)
    *lead, frames, d = a.shape
    head_dim = d // num_heads
    split = (*lead, frames, num_heads, head_dim)
    q, k, v = (
        linear(a, weight, bias).reshape(split).swapaxes(-3, -2)
        for weight, bias in (
            (block.q_weight, block.q_bias),
            (block.k_weight, block.k_bias),
            (block.v_weight, block.v_bias),
        )
    )
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(head_dim)
    weights = softmax64(scores, out=scores)
    ctx = (weights @ v).swapaxes(-3, -2).reshape(*lead, frames, d)
    h64 = h64 + linear(ctx, block.out_weight, block.out_bias)
    ffn_in = _reference_layer_norm(h64, block.ffn_norm_gain, block.ffn_norm_bias)
    hid = linear(ffn_in, block.ffn_in_weight, block.ffn_in_bias)
    np.maximum(hid, 0.0, out=hid)
    return h64 + matmul64(hid, block.ffn_out_weight.T) + block.ffn_out_bias.astype(np.float64)


def _reference_forward(enc, inputs):
    """Every layer of a (B, frames, input_dim) batch through the reference kernels."""
    stream = _reference_embed(enc, inputs)
    layers = []
    for block in enc.blocks:
        stream = _reference_block(stream, block, enc.config.num_heads).astype(np.float32)
        layers.append(stream)
    return np.stack(layers)


def _reference_entropy64(q):
    log_q = np.zeros_like(q)
    np.log(q, out=log_q, where=q > 0)
    log_q *= q
    return -log_q.sum(axis=-1)


def _reference_frame_entropies(branches, hidden, layer):
    """Per-frame entropies of branch `layer` through the checked softmax and the masked log."""
    w, b = branches.weights[layer - 1], branches.biases[layer - 1]
    return _reference_entropy64(softmax(matmul64(hidden, w.T) + b.astype(np.float64)))


def _scaled_branches(branches, scale):
    return BranchSet(
        weights=branches.weights * np.float32(scale), biases=branches.biases * np.float32(scale)
    )


def _with_random_norms_and_biases(enc):
    """`enc` with every gain and bias drawn at random: the drawn encoder's are ones and zeros."""
    rng = np.random.default_rng(31)
    vectors = [name for name in TestDerivedFloat64Arrays.BLOCK_ARRAYS if not name.endswith("weight")]
    input_bias = rng.standard_normal(enc.input_bias.shape).astype(np.float32)
    return dataclasses.replace(enc, input_bias=input_bias, blocks=tuple(
        dataclasses.replace(block, **{
            name: (1 + 0.3 * rng.standard_normal(getattr(block, name).shape)).astype(np.float32)
            for name in vectors
        })
        for block in enc.blocks
    ))


@pytest.fixture(scope="module")
def default_enc():
    return init_encoder(EncoderConfig())


class TestAgainstReferenceKernels:
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_embedding_equals_the_reference_embed(self, enc, perturbed):
        enc = _with_random_norms_and_biases(enc) if perturbed else enc
        cfg = enc.config
        rng = np.random.default_rng(23)
        # The second batch is as long as the encoder takes, so every position is embedded.
        for inputs in (_batch(enc, rng, 7), rng.standard_normal((3, cfg.max_frames, cfg.input_dim))):
            reference = _reference_embed(enc, inputs)
            assert embed_batch(enc, inputs).tobytes() == reference.tobytes()
            for b, x in enumerate(inputs):
                # The per-sample path's embedding, and the reference's per sample.
                assert _embed(enc, x, batched=False).tobytes() == reference[b].tobytes(), b
                assert _reference_embed(enc, x).tobytes() == reference[b].tobytes(), b

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_layers_equal_the_reference_block(self, enc, perturbed):
        enc = _with_random_norms_and_biases(enc) if perturbed else enc
        inputs = _batch(enc, np.random.default_rng(21), 7)
        reference = _reference_forward(enc, inputs)
        assert np.array_equal(forward_batch(enc, inputs), reference)
        for b, x in enumerate(inputs):
            assert np.array_equal(forward_all(enc, x), reference[:, b]), b
            assert np.array_equal(_reference_forward(enc, x[None])[:, 0], reference[:, b]), b

    # The encoder multiplies by C-ordered (in, out) weights, the reference by the
    # transposed views of (out, in) ones. Single float64 products by the two round
    # differently at few frames on some OpenBLAS kernels; the float32 layers must not.
    @pytest.mark.parametrize("frames", [1, 5, 18, 19])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_default_encoder_at_few_frames(self, default_enc, frames, perturbed):
        enc = _with_random_norms_and_biases(default_enc) if perturbed else default_enc
        rng = np.random.default_rng(40 + frames)
        inputs = rng.standard_normal((3, frames, enc.config.input_dim)).astype(np.float32)
        embedded = embed_batch(enc, inputs)
        assert embedded.tobytes() == _reference_embed(enc, inputs).tobytes(), "embedding"
        reference = _reference_forward(enc, inputs)
        batched = forward_batch(enc, inputs)
        for k, layer in enumerate(reference, start=1):
            assert batched[k - 1].tobytes() == layer.tobytes(), (
                f"batched layer {k}, {frames} frames"
            )
        for b, x in enumerate(inputs):
            assert _embed(enc, x, batched=False).tobytes() == embedded[b].tobytes(), b
            served = forward_all(enc, x)
            for k, layer in enumerate(reference, start=1):
                assert served[k - 1].tobytes() == layer[b].tobytes(), (
                    f"served layer {k}, {frames} frames, sample {b}"
                )

    # Scale 400 makes posteriors whose small probabilities underflow to exact zeros.
    @pytest.mark.parametrize("scale", [1.0, 400.0])
    def test_entropies_equal_the_reference_kernel(self, enc, branches, scale):
        scaled = _scaled_branches(branches, scale)
        states = forward_batch(enc, _batch(enc, np.random.default_rng(22), 7))
        reference = np.stack(
            [running_means(_reference_frame_entropies(scaled, hidden, k))
             for k, hidden in enumerate(states, start=1)],
            axis=1,
        )
        assert batch_entropies(scaled, states).tobytes() == reference.tobytes()
        if scale > 1:
            probs = softmax(matmul64(states[-1], scaled.weights[-1].T))
            assert (probs == 0).any()
        for b in range(states.shape[1]):
            for k in range(1, len(states) + 1):
                single = entropy_from_hidden(scaled, states[k - 1, b], k)
                assert single == running_mean(
                    _reference_frame_entropies(scaled, states[k - 1, b], k)
                ), (b, k)
                assert single == reference[b, k - 1]


class TestEntropy64:
    @pytest.mark.parametrize("logit_scale", [1.0, 30.0, 1e3, 1e4])
    def test_equals_the_masked_log_on_underflowed_rows(self, logit_scale):
        logits = np.random.default_rng(int(logit_scale)).standard_normal((200, 32)) * logit_scale
        q = softmax(logits)
        if logit_scale >= 1e3:
            assert (q == 0).any()
        assert entropy64(q).tobytes() == _reference_entropy64(q).tobytes()

    def test_equals_the_masked_log_on_one_hot_rows(self):
        for q in (np.eye(32), np.eye(32)[:, ::-1], np.eye(1)):
            got = entropy64(q)
            assert got.tobytes() == _reference_entropy64(q).tobytes()
            assert (got == 0).all()


class TestDerivedFloat64Arrays:
    BLOCK_ARRAYS = [
        "attn_norm_gain", "attn_norm_bias", "q_weight", "q_bias", "k_weight", "k_bias",
        "v_weight", "v_bias", "out_weight", "out_bias", "ffn_norm_gain", "ffn_norm_bias",
        "ffn_in_weight", "ffn_in_bias", "ffn_out_weight", "ffn_out_bias",
    ]

    def test_fields_are_the_stored_arrays(self):
        assert [f.name for f in dataclasses.fields(BlockParams)] == self.BLOCK_ARRAYS

    def test_fused_projection_holds_q_k_v(self, enc):
        block = enc.blocks[0]
        d = enc.config.model_dim
        assert block.f64.qkv_weight.shape == (d, 3 * d)
        for i, name in enumerate("qkv"):
            part = slice(i * d, (i + 1) * d)
            assert np.array_equal(block.f64.qkv_weight[:, part], getattr(block, f"{name}_weight").T)
            assert np.array_equal(block.f64.qkv_bias[part], getattr(block, f"{name}_bias"))
        assert block.f64 is block.f64

    def test_weights_are_c_ordered_in_out_arrays_of_their_own(self, enc):
        cfg = enc.config
        d, ffn = cfg.model_dim, cfg.ffn_dim
        shapes = {"qkv_weight": (d, 3 * d), "out_weight": (d, d),
                  "ffn_in_weight": (d, ffn), "ffn_out_weight": (ffn, d)}
        for block in enc.blocks:
            for f in dataclasses.fields(block.f64):
                a = getattr(block.f64, f.name)
                assert a.dtype == np.float64, f.name
                assert a.flags.c_contiguous and a.flags.owndata, f.name
                if f.name in shapes:
                    assert a.shape == shapes[f.name], f.name
                if not f.name.startswith("qkv"):
                    stored = getattr(block, f.name)
                    assert np.array_equal(a, stored.T if f.name.endswith("weight") else stored)
        weight = enc.f64[0]
        assert weight.dtype == np.float64 and weight.shape == (cfg.input_dim, d)
        assert weight.flags.c_contiguous and weight.flags.owndata
        assert np.array_equal(weight, enc.input_weight.T)

    def test_checkpoint_round_trip_keeps_its_bytes(self, enc, branches):
        ck = Checkpoint(encoder=enc, branches=branches)
        before = checkpoint_to_bytes(ck)
        digest = parameter_digest(enc)
        forward_batch(enc, _batch(enc, np.random.default_rng(23), 2))  # fills every block's f64
        batch_entropies(branches, forward_batch(enc, _batch(enc, np.random.default_rng(24), 2)))
        assert checkpoint_to_bytes(ck) == before
        assert parameter_digest(enc) == digest
        restored = checkpoint_from_bytes(before)
        assert checkpoint_to_bytes(restored) == before
        x = _batch(enc, np.random.default_rng(25), 3)
        assert np.array_equal(forward_batch(restored.encoder, x), forward_batch(enc, x))

    def test_replaced_block_casts_its_own_arrays(self, enc):
        block = enc.blocks[0]
        doubled = dataclasses.replace(block, q_weight=block.q_weight * np.float32(2))
        d = enc.config.model_dim
        assert np.array_equal(doubled.f64.qkv_weight[:, :d], 2 * block.f64.qkv_weight[:, :d])
        assert np.array_equal(doubled.f64.qkv_weight[:, d:], block.f64.qkv_weight[:, d:])

    def test_redrawn_and_reloaded_encoders_cast_their_own_blocks(self, enc):
        # Each block object casts and keeps its own float64 arrays; equal
        # float32 arrays give bit-equal copies, which forward the same bits.
        redrawn = init_encoder(enc.config)
        reloaded = checkpoint_from_bytes(checkpoint_to_bytes(Checkpoint(encoder=enc))).encoder
        for other in (redrawn, reloaded):
            for block, twin in zip(enc.blocks, other.blocks):
                assert twin.f64 is not block.f64 and twin.f64 is twin.f64
                for f in dataclasses.fields(block.f64):
                    mine, theirs = getattr(block.f64, f.name), getattr(twin.f64, f.name)
                    assert not np.shares_memory(mine, theirs)
                    assert mine.tobytes() == theirs.tobytes(), f.name
            x = _batch(enc, np.random.default_rng(26), 3)
            assert forward_batch(other, x).tobytes() == forward_batch(enc, x).tobytes()
            assert forward_all(other, x[0]).tobytes() == forward_all(enc, x[0]).tobytes()
