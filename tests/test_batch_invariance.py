"""Batch invariance: the batched forward and entropy kernel against the per-sample path.

A sample's layers and branch entropies must not depend on the batch it is
computed in: its size, its order, or the other sequences in it. Each test
compares against `IncrementalForward` (through `forward_all`) and
`sample_entropies` bit for bit, on the small test encoder and on the
default-size one the pipeline runs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from adaexit.branches import BranchSet, batch_entropies, init_branches, sample_entropies
from adaexit.encoder import (
    FORWARD_CHUNK,
    EncoderConfig,
    IncrementalForward,
    forward_all,
    forward_batch,
    hidden_state_cache,
    init_encoder,
)
from adaexit.numeric import running_mean, running_means

from conftest import SMALL_ENCODER

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
