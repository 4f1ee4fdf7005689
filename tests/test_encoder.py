from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from adaexit import encoder
from adaexit.encoder import (
    EncoderConfig,
    IncrementalForward,
    _attention,
    forward_all,
    hidden_state_cache,
    init_encoder,
    parameter_digest,
)
from adaexit.errors import ConfigError

from conftest import SMALL_ENCODER, truncated_forward

# Self-golden value frozen at first build; guards against any silent change
# to parameter initialization.
GOLDEN_DIGEST_SEED42 = "63693f0dc74bd67bda3d58e57686f49ff69cdf36053aa58df73cd9fe9b200e97"


def _inputs(rng, frames=10, dim=SMALL_ENCODER.input_dim):
    return rng.standard_normal((frames, dim)).astype(np.float32)


class TestConfig:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            EncoderConfig(model_dim=30, num_heads=4)

    def test_at_least_two_layers(self):
        with pytest.raises(ConfigError):
            EncoderConfig(num_layers=1)

    @pytest.mark.parametrize("field", ["model_dim", "ffn_dim", "max_frames", "input_dim"])
    def test_counts_positive(self, field):
        with pytest.raises(ConfigError):
            EncoderConfig(**{field: 0})


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_encoder(SMALL_ENCODER)
        b = init_encoder(SMALL_ENCODER)
        for x, y in zip(a.parameter_arrays(), b.parameter_arrays()):
            assert np.array_equal(x, y)

    def test_different_seed_differs(self):
        a = init_encoder(SMALL_ENCODER)
        b = init_encoder(replace(SMALL_ENCODER, seed=10))
        assert parameter_digest(a) != parameter_digest(b)

    def test_golden_checksum(self):
        enc = init_encoder(
            EncoderConfig(
                num_layers=8, model_dim=64, num_heads=4, ffn_dim=128,
                max_frames=64, input_dim=16, seed=42,
            )
        )
        assert parameter_digest(enc) == GOLDEN_DIGEST_SEED42

    def test_drawn_arrays_have_their_declared_shapes(self):
        # Every dimension differs, so a transposed or misnamed shape shows;
        # the golden digest hashes bytes only and cannot see one.
        cfg = EncoderConfig(
            num_layers=3, model_dim=12, num_heads=3, ffn_dim=20, max_frames=9, input_dim=5, seed=4
        )
        enc = init_encoder(cfg)
        assert encoder.Encoder.shapes(cfg) == {"input_weight": (12, 5), "input_bias": (12,)}
        expected = {
            "attn_norm_gain": (12,), "attn_norm_bias": (12,),
            "q_weight": (12, 12), "q_bias": (12,), "k_weight": (12, 12), "k_bias": (12,),
            "v_weight": (12, 12), "v_bias": (12,), "out_weight": (12, 12), "out_bias": (12,),
            "ffn_norm_gain": (12,), "ffn_norm_bias": (12,),
            "ffn_in_weight": (20, 12), "ffn_in_bias": (20,),
            "ffn_out_weight": (12, 20), "ffn_out_bias": (12,),
        }
        assert list(encoder.BlockParams.shapes(cfg).items()) == list(expected.items())
        assert enc.input_weight.shape == (12, 5) and enc.input_bias.shape == (12,)
        assert len(enc.blocks) == 3
        for block in enc.blocks:
            for name, shape in expected.items():
                a = getattr(block, name)
                assert a.shape == shape and a.dtype == np.float32, name
                if name.endswith("_gain"):
                    assert (a == 1).all(), name
                elif name.endswith("_bias"):
                    assert (a == 0).all(), name
        weight, bias, positions = enc.f64
        assert weight.shape == (5, 12) and bias.shape == (12,) and positions.shape == (9, 12)
        assert all(a.dtype == np.float64 for a in enc.f64)
        assert np.array_equal(weight, enc.input_weight.T)


class TestForward:
    def test_longer_max_frames_by_replace_forwards(self, small_encoder, rng):
        # The positions follow the config: a replaced config with more frames
        # embeds them all, and the frames both configs take embed alike.
        cfg = small_encoder.config
        longer = replace(small_encoder, config=replace(cfg, max_frames=cfg.max_frames + 24))
        x = _inputs(rng, frames=cfg.max_frames + 24)
        hs = forward_all(longer, x)
        assert hs.shape == (cfg.num_layers, cfg.max_frames + 24, cfg.model_dim)
        assert np.isfinite(hs).all()
        short = x[: cfg.max_frames]
        assert np.array_equal(forward_all(longer, short), forward_all(small_encoder, short))

    def test_all_layers_returned(self, small_encoder, rng):
        hs = forward_all(small_encoder, _inputs(rng))
        assert len(hs) == SMALL_ENCODER.num_layers
        assert hs[0].shape == (10, SMALL_ENCODER.model_dim)
        assert hs.dtype == np.float32

    def test_deterministic(self, small_encoder, rng):
        x = _inputs(rng)
        a = forward_all(small_encoder, x)
        b = forward_all(small_encoder, x)
        assert np.array_equal(a, b)

    def test_batch_order_irrelevant(self, small_encoder, rng):
        # No cross-sample state: each forward is a pure function of its input.
        xs = [_inputs(rng) for _ in range(4)]
        first = [forward_all(small_encoder, x)[3] for x in xs]
        second = [forward_all(small_encoder, x)[3] for x in reversed(xs)]
        for a, b in zip(first, reversed(second)):
            assert np.array_equal(a, b)

    def test_rejects_zero_frames(self, small_encoder):
        with pytest.raises(ValueError):
            forward_all(small_encoder, np.zeros((0, SMALL_ENCODER.input_dim), dtype=np.float32))

    def test_rejects_too_many_frames(self, small_encoder, rng):
        with pytest.raises(ValueError):
            forward_all(small_encoder, _inputs(rng, frames=SMALL_ENCODER.max_frames + 1))

    def test_rejects_wrong_input_dim(self, small_encoder, rng):
        with pytest.raises(ValueError):
            forward_all(small_encoder, _inputs(rng, dim=SMALL_ENCODER.input_dim + 1))

    def test_attention_rows_are_probabilities(self, small_encoder, rng):
        # With every value row equal to c and identity output weights, the
        # attention output is each weight row's sum times c: c iff rows sum to 1.
        d = SMALL_ENCODER.model_dim
        c = rng.standard_normal(d).astype(np.float32)
        block = replace(
            small_encoder.blocks[0],
            v_weight=np.zeros((d, d), dtype=np.float32),
            v_bias=c,
            out_weight=np.eye(d, dtype=np.float32),
            out_bias=np.zeros(d, dtype=np.float32),
        )
        out = _attention(rng.standard_normal((10, d)), block, SMALL_ENCODER.num_heads)
        assert np.allclose(out, np.broadcast_to(c, out.shape), atol=1e-5)


class TestForwardUntil:
    """A forward stopped at layer k by IncrementalForward.hidden(k)."""

    def test_stop_immediately(self, small_encoder, rng):
        hs = truncated_forward(small_encoder, _inputs(rng), 1)
        assert len(hs) == 1

    def test_never_stop_equals_forward_all(self, small_encoder, rng):
        x = _inputs(rng)
        a = truncated_forward(small_encoder, x, SMALL_ENCODER.num_layers)
        b = forward_all(small_encoder, x)
        assert a.shape == b.shape
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("stop_at", [1, 2, 3, 4])
    def test_prefix_bit_identical(self, small_encoder, rng, stop_at):
        x = _inputs(rng)
        full = forward_all(small_encoder, x)
        part = truncated_forward(small_encoder, x, stop_at)
        assert len(part) == stop_at
        assert np.array_equal(part, full[:stop_at])

    def test_states_after_each_layer_equal_full_prefix(self, small_encoder, rng):
        # One forward advanced layer by layer: after hidden(k), states() is
        # the first k rows of the full pass, bit for bit.
        x = _inputs(rng)
        full = forward_all(small_encoder, x)
        inc = IncrementalForward(small_encoder, x)
        for k in range(1, SMALL_ENCODER.num_layers + 1):
            inc.hidden(k)
            states = inc.states()
            assert states.shape == full[:k].shape and states.dtype == full.dtype
            assert np.array_equal(states, full[:k])

    def test_each_layer_computed_once(self, small_encoder, rng, monkeypatch):
        blocks = []
        original = encoder._attention

        def counting(a, block, num_heads):
            blocks.append(block)
            return original(a, block, num_heads)

        monkeypatch.setattr(encoder, "_attention", counting)
        inc = IncrementalForward(small_encoder, _inputs(rng))
        third = inc.hidden(3)
        assert np.shares_memory(inc.hidden(2), inc.states()[1])
        assert np.shares_memory(inc.hidden(3), third)
        assert len(blocks) == 3
        assert all(a is b for a, b in zip(blocks, small_encoder.blocks))
        assert inc.layers_done == 3

    def test_uncomputed_layer_access_raises(self, small_encoder, rng):
        hs = truncated_forward(small_encoder, _inputs(rng), 2)
        with pytest.raises(IndexError):
            hs[2]


class TestHiddenStateCache:
    def test_layers_equal_forward_all(self, small_encoder, rng):
        inputs = np.stack([_inputs(rng) for _ in range(3)])
        cache = hidden_state_cache(small_encoder, inputs)
        assert cache.shape == (SMALL_ENCODER.num_layers, 3, 10, SMALL_ENCODER.model_dim)
        assert cache.dtype == np.float32
        for i in range(3):
            assert np.array_equal(cache[:, i], forward_all(small_encoder, inputs[i]))


class TestFreeze:
    def test_parameters_constant_across_forwards(self, small_encoder, rng):
        before = parameter_digest(small_encoder)
        for _ in range(3):
            forward_all(small_encoder, _inputs(rng))
        assert parameter_digest(small_encoder) == before
