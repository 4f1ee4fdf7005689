from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaexit.numeric import (
    entropy,
    layer_norm,
    new_rng,
    sgd_step,
    softmax,
)
from adaexit.probe import DownstreamHead, _loss_and_grads

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=10_000),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_large_logits_do_not_overflow(self):
        out = softmax([1000.0, 1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_exp_normalize_oracle(self):
        # exp-normalize by hand: [1, 3] / 4
        assert np.allclose(softmax([math.log(1), math.log(3)]), [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal(17)
        assert np.allclose(softmax(x), softmax(x + 123.456), atol=1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([1.0, np.inf])

    @settings(max_examples=40, deadline=None)
    @given(finite_vectors)
    def test_sums_to_one(self, x):
        out = softmax(x)
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out >= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(finite_vectors)
    def test_entropy_of_softmax_bounded(self, x):
        assert entropy(softmax(x)) <= math.log(len(x)) + 1e-12


class TestEntropy:
    def test_uniform_is_log_c(self):
        assert entropy(np.full(32, 1 / 32)) == pytest.approx(math.log(32), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_direct_summation_oracle(self):
        # -(0.5 ln 0.5) * 2, zero entries contribute nothing
        assert entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            entropy([0.4, 0.4])

    def test_row_stack(self):
        out = entropy(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert np.allclose(out, [math.log(2), 0.0])


class TestLayerNorm:
    def test_constant_vector_goes_to_zero(self):
        out = layer_norm(np.full(8, 3.7))
        assert np.allclose(out, 0.0, atol=1e-2)

    def test_already_normalized(self):
        out = layer_norm(np.array([1.0, -1.0]), eps=0.0)
        assert np.allclose(out, [1.0, -1.0], atol=1e-6)

    def test_mean_variance_oracle(self):
        out = layer_norm(np.array([2.0, 4.0, 6.0]))
        expect = np.array([-math.sqrt(1.5), 0.0, math.sqrt(1.5)])
        assert np.allclose(out, expect, atol=1e-4)

    def test_statistics_of_random_rows(self, rng):
        x = rng.standard_normal((5, 32))
        out = layer_norm(x).astype(np.float64)
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-5)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)

    def test_gain_bias(self):
        out = layer_norm(np.array([1.0, -1.0]), gain=np.array([2.0, 2.0]),
                         bias=np.array([1.0, 1.0]), eps=0.0)
        assert np.allclose(out, [3.0, -1.0], atol=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            layer_norm(np.ones(4), gain=np.ones(3), bias=np.zeros(4))


def probe_loss(logits, target):
    """Loss and logit gradient of the downstream probe's sequence-task cross-entropy.

    A zero probe weight makes the probe's logits equal its bias.
    """
    logits = np.asarray(logits, dtype=np.float64)
    head = DownstreamHead(
        layer_weights=np.zeros(1, dtype=np.float32),
        probe_weight=np.zeros((logits.size, 1), dtype=np.float32),
        probe_bias=logits,
    )
    loss, _, _, d_logits = _loss_and_grads(head, np.zeros((1, 1)), target, "sequence")
    return loss, d_logits


class TestCrossEntropy:
    def test_symmetric_two_way(self):
        assert probe_loss([0.0, 0.0], 0)[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_dominant_logit(self):
        assert probe_loss([20.0, 0.0, 0.0], 0)[0] == pytest.approx(0.0, abs=1e-6)

    def test_softmax_oracle(self):
        expect = -math.log(math.exp(3) / (math.exp(1) + math.exp(2) + math.exp(3)))
        assert probe_loss([1.0, 2.0, 3.0], 2)[0] == pytest.approx(expect, abs=1e-10)
        assert expect == pytest.approx(0.4076, abs=1e-4)

    def test_matches_negative_log_softmax(self, rng):
        x = rng.standard_normal(9)
        assert probe_loss(x, 4)[0] == pytest.approx(-math.log(softmax(x)[4]), abs=1e-10)

    def test_gradient_matches_finite_differences(self, rng):
        x = rng.standard_normal(7)
        target = 3
        _, grad = probe_loss(x, target)
        h = 1e-3
        for i in range(7):
            bump = np.zeros(7)
            bump[i] = h
            fd = (probe_loss(x + bump, target)[0] - probe_loss(x - bump, target)[0]) / (
                2 * h
            )
            denom = max(abs(fd), 1e-8)
            assert abs(grad[i] - fd) / denom < 1e-4


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        p = np.ones((2, 3), dtype=np.float32)
        out = sgd_step(p, np.full((2, 3), 5.0), 0.0)
        assert np.array_equal(out, p)

    def test_elementwise(self):
        out = sgd_step(np.ones((2, 2)), np.ones((2, 2)), 0.1)
        assert np.allclose(out, 0.9)

    def test_descends_quadratic(self, rng):
        # loss = 0.5 * ||p||^2 has gradient p
        p = rng.standard_normal(10).astype(np.float32)
        p2 = sgd_step(p, p, 0.1)
        assert 0.5 * (p2**2).sum() < 0.5 * (p**2).sum()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.ones(3), np.ones(4), 0.1)


class TestSeededRng:
    def test_identical_seeds_identical_streams(self):
        a = new_rng(777).integers(0, 2**63, size=64)
        b = new_rng(777).integers(0, 2**63, size=64)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = new_rng(1).standard_normal(16)
        b = new_rng(2).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            new_rng(-1)
