from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaexit.numeric import (
    cross_entropy,
    entropy,
    entropy64,
    layer_norm,
    layer_norm64,
    matmul64,
    new_rng,
    sgd_step,
    softmax,
    train_linear_heads,
)

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

    def test_stack_equals_rows_bitwise(self, rng):
        x = rng.standard_normal((2, 3, 6)) * 10.0
        out = softmax(x)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], softmax(x[i, j]))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            softmax(1.0)

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

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.5, 0.5], [1.1, -0.1]], "negative probability entry"),
            ([[0.5, 0.5], [0.4, 0.4]], "do not sum to 1"),
            ([[0.5, 0.5], [np.nan, 1.0]], "do not sum to 1"),
        ],
        ids=["negative", "unnormalized", "nan"],
    )
    def test_stack_with_one_bad_row_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            entropy(np.array(rows))

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 12)),
            elements=st.floats(min_value=-900, max_value=900, allow_nan=False),
        )
    )
    def test_core_equals_validated_entropy_bitwise(self, logits):
        # Logits hundreds apart underflow to exact zeros, e.g. [0, -800].
        probs = softmax(logits)
        core = entropy64(probs)
        assert np.array_equal(core, entropy(probs))
        assert np.array_equal(core, masked_entropy(probs))
        for r in range(len(probs)):
            assert core[r] == entropy(probs[r])

    def test_core_on_exact_zeros(self):
        probs = softmax(np.array([[0.0, -800.0], [0.0, 0.0], [5.0, -800.0]]))
        assert probs[0, 1] == 0.0
        assert np.array_equal(entropy64(probs), masked_entropy(probs))
        assert entropy64(probs)[0] == 0.0


def masked_entropy(q):
    """Reference: the masked sum of q·log q that `entropy` computed inline."""
    terms = np.zeros_like(q)
    mask = q > 0
    terms[mask] = q[mask] * np.log(q[mask])
    return -terms.sum(axis=-1)


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

    def test_stack_equals_matrices_bitwise(self, rng):
        x = (rng.standard_normal((3, 5, 32)) * 3.0).astype(np.float32)
        gain = rng.standard_normal(32).astype(np.float32)
        bias = rng.standard_normal(32).astype(np.float32)
        out = layer_norm(x, gain, bias)
        assert out.shape == x.shape and out.dtype == np.float32
        for i in range(3):
            assert np.array_equal(out[i], layer_norm(x[i], gain, bias))
            for r in range(5):
                assert np.array_equal(out[i, r], layer_norm(x[i, r], gain, bias))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            layer_norm(np.float32(1.0))

    @settings(max_examples=80, deadline=None)
    @given(
        rows=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 70)),
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        ),
        scale=st.floats(min_value=-30, max_value=30),
        offset=st.floats(min_value=-1e6, max_value=1e6),
        seed=st.integers(0, 2**16),
    )
    def test_core_equals_var_formula_bitwise(self, rows, scale, offset, seed):
        x = rows * 10.0**scale + offset
        gain, bias = np.random.default_rng(seed).standard_normal((2, x.shape[-1]))
        gain, bias = gain.astype(np.float32), bias.astype(np.float32)
        assert np.array_equal(layer_norm64(x, gain, bias), var_layer_norm(x, gain, bias))

    @pytest.mark.parametrize("width", [1, 2, 64])
    def test_constant_and_width_one_rows_bitwise(self, rng, width):
        x = np.concatenate([np.full((2, width), 3.7), rng.standard_normal((3, width)) * 1e3])
        gain, bias = rng.standard_normal((2, width)).astype(np.float32)
        assert np.array_equal(layer_norm64(x, gain, bias), var_layer_norm(x, gain, bias))


def var_layer_norm(x64, gain, bias, eps=1e-5):
    """Reference: layer norm with np.mean and np.var, which centres each row twice."""
    mean = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    return (x64 - mean) / np.sqrt(var + eps) * gain.astype(np.float64) + bias.astype(np.float64)


def probe_loss(logits, target):
    """Loss and logit gradient of one row of logits against one target."""
    loss, d_logits = cross_entropy(np.asarray(logits, dtype=np.float64)[None], [target])
    return float(loss), d_logits[0]


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

    def test_mean_over_rows(self, rng):
        x = rng.standard_normal((6, 5))
        labels = np.array([0, 4, 2, 2, 1, 3])
        loss, grad = cross_entropy(x, labels)
        rows = [probe_loss(x[r], labels[r]) for r in range(6)]
        assert float(loss) == pytest.approx(np.mean([r[0] for r in rows]), abs=1e-12)
        assert np.allclose(grad, np.stack([r[1] for r in rows]) / 6, atol=1e-15)

    @pytest.mark.parametrize("rows", [7, 40])
    def test_stack_equals_single_calls(self, rng, rows):
        x = rng.standard_normal((3, rows, 5)) * 4.0
        labels = rng.integers(0, 5, size=rows)
        loss, grad = cross_entropy(x, labels)
        assert loss.shape == (3,) and grad.shape == x.shape
        for h in range(3):
            single_loss, single_grad = cross_entropy(x[h], labels)
            assert np.array_equal(grad[h], single_grad)
            assert loss[h] == single_loss

    def test_does_not_modify_input(self, rng):
        x = rng.standard_normal((4, 3))
        before = x.copy()
        cross_entropy(x, np.array([0, 1, 2, 0]))
        assert np.array_equal(x, before)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 0, 3)), np.zeros(0, dtype=np.int64))


class TestTrainLinearHeads:
    HEADS, N, T, DIM, C = 3, 10, 6, 5, 4

    def _problem(self, rng):
        cache = rng.standard_normal((self.HEADS, self.N, self.T, self.DIM)).astype(np.float32)
        labels = rng.integers(0, self.C, size=(self.N, self.T)).astype(np.int32)
        weights = (rng.standard_normal((self.HEADS, self.C, self.DIM)) * 0.1).astype(np.float32)
        biases = np.zeros((self.HEADS, self.C), dtype=np.float32)
        return cache, labels, weights, biases

    def test_joint_heads_equal_heads_trained_alone_bitwise(self, rng):
        cache, labels, weights, biases = self._problem(rng)
        joint_w, joint_b, joint_loss = train_linear_heads(
            cache, labels, weights, biases, lr=0.5, steps=30, batch_size=3, seed=7
        )
        assert joint_loss.shape == (30, self.HEADS)
        for h in range(self.HEADS):
            w, b, loss = train_linear_heads(
                cache[h : h + 1], labels, weights[h : h + 1], biases[h : h + 1],
                lr=0.5, steps=30, batch_size=3, seed=7,
            )
            assert np.array_equal(w[0], joint_w[h])
            assert np.array_equal(b[0], joint_b[h])
            assert np.array_equal(loss[:, 0], joint_loss[:, h])

    def test_step_matches_hand_written_gradient(self, rng):
        cache, labels, weights, biases = self._problem(rng)
        w, b, loss = train_linear_heads(
            cache[:1], labels, weights[:1], biases[:1], lr=0.5, steps=1, batch_size=4, seed=7
        )
        batch = new_rng(7).integers(0, self.N, size=4)
        x = cache[0, batch].reshape(-1, self.DIM).astype(np.float64)
        y = labels[batch].reshape(-1)
        probs = softmax(x @ weights[0].T.astype(np.float64))
        onehot = np.eye(self.C)[y]
        expect_loss = -np.log(probs[np.arange(y.size), y]).mean()
        grad = (probs - onehot) / y.size
        assert loss[0, 0] == pytest.approx(expect_loss, abs=1e-12)
        assert np.allclose(w[0], weights[0] - 0.5 * grad.T @ x, atol=1e-6)
        assert np.allclose(b[0], -0.5 * grad.sum(axis=0), atol=1e-6)

    def test_loss_decreases(self, rng):
        cache, labels, weights, biases = self._problem(rng)
        # Make the labels a linear function of head 0's features.
        labels = cache[0, :, :, : self.C].argmax(axis=-1).astype(np.int32)
        _, _, loss = train_linear_heads(
            cache[:1], labels, weights[:1], biases[:1], lr=0.5, steps=200, batch_size=4, seed=7
        )
        assert loss[-20:, 0].mean() < loss[:20, 0].mean()

    def test_zero_steps_returns_start(self, rng):
        cache, labels, weights, biases = self._problem(rng)
        w, b, loss = train_linear_heads(
            cache, labels, weights, biases, lr=0.5, steps=0, batch_size=3, seed=7
        )
        assert np.array_equal(w, weights) and np.array_equal(b, biases)
        assert loss.shape == (0, self.HEADS)

    @pytest.mark.parametrize("heads", [1, 8])
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_equals_per_step_cast_loop_bitwise(self, rng, heads, batch_size):
        # N = 5 sequences, so a batch of 32 repeats indices and a batch of 1
        # repeats across steps.
        cache = rng.standard_normal((heads, 5, self.T, self.DIM)).astype(np.float32)
        labels = rng.integers(0, self.C, size=(5, self.T)).astype(np.int32)
        weights = (rng.standard_normal((heads, self.C, self.DIM)) * 0.1).astype(np.float32)
        biases = (rng.standard_normal((heads, self.C)) * 0.1).astype(np.float32)
        args = (cache, labels, weights, biases, 0.3, 12, batch_size, 11)
        for got, expect in zip(train_linear_heads(*args), cast_per_step_heads(*args)):
            assert np.array_equal(got, expect)

    def test_empty_batch_rejected(self, rng):
        cache, labels, weights, biases = self._problem(rng)
        with pytest.raises(ValueError, match="empty input"):
            train_linear_heads(
                cache, labels, weights, biases, lr=0.5, steps=5, batch_size=0, seed=7
            )


def cast_per_step_heads(cache, labels, weights, biases, lr, steps, batch_size, seed):
    """Reference trainer: each matmul casts a fresh float32 gather of the batch."""
    heads, num_sequences, _, dim = cache.shape
    rng = new_rng(seed)
    losses = np.empty((steps, heads), dtype=np.float64)
    for step in range(steps):
        batch = rng.integers(0, num_sequences, size=batch_size)
        feats = cache[:, batch].reshape(heads, -1, dim)
        logits = matmul64(feats, weights.transpose(0, 2, 1)) + biases[:, None, :].astype(
            np.float64
        )
        losses[step], dlogits = cross_entropy(logits, labels[batch].reshape(-1))
        weights = sgd_step(weights, matmul64(dlogits.transpose(0, 2, 1), feats), lr)
        biases = sgd_step(biases, dlogits.sum(axis=1), lr)
    return weights, biases, losses


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
