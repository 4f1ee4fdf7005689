from __future__ import annotations

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaexit import numeric
from adaexit.numeric import (
    F32_MAX,
    cross_entropy64,
    entropy64,
    layer_norm,
    layer_norm64,
    new_rng,
    running_mean,
    sgd_step,
    softmax,
    train_linear_heads,
)

from conftest import cross_entropy

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
        assert entropy64(softmax(x)) <= math.log(len(x)) + 1e-12


class TestEntropy:
    def test_uniform_is_log_c(self):
        assert entropy64(np.full(32, 1 / 32)) == pytest.approx(math.log(32), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy64(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_direct_summation_oracle(self):
        # -(0.5 ln 0.5) * 2, zero entries contribute nothing
        assert entropy64(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)

    def test_row_stack(self):
        out = entropy64(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert np.allclose(out, [math.log(2), 0.0])

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 12)),
            elements=st.floats(min_value=-900, max_value=900, allow_nan=False),
        )
    )
    def test_core_equals_masked_formula_bitwise(self, logits):
        # Logits hundreds apart underflow to exact zeros, e.g. [0, -800].
        probs = softmax(logits)
        core = entropy64(probs)
        assert np.array_equal(core, masked_entropy(probs))
        for r in range(len(probs)):
            assert core[r] == entropy64(probs[r])

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
        out = layer_norm64(np.array([1.0, -1.0]), np.ones(2), np.zeros(2), eps=0.0)
        assert np.array_equal(out, [1.0, -1.0])

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
        out = layer_norm64(np.array([1.0, -1.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0]),
                           eps=0.0)
        assert np.array_equal(out, [3.0, -1.0])

    def test_stack_equals_matrices_bitwise(self, rng):
        x = (rng.standard_normal((3, 5, 32)) * 3.0).astype(np.float32)
        gain = rng.standard_normal(32).astype(np.float32)
        bias = rng.standard_normal(32).astype(np.float32)
        x64 = x.astype(np.float64)
        out = layer_norm64(x64, gain, bias)
        assert out.shape == x.shape and out.dtype == np.float64
        for i in range(3):
            assert np.array_equal(out[i], layer_norm64(x64[i], gain, bias))
            for r in range(5):
                assert np.array_equal(out[i, r], layer_norm64(x64[i, r], gain, bias))

    def test_is_the_core_at_unit_gain_and_zero_bias(self, rng):
        x = (rng.standard_normal((3, 5, 32)) * 3.0).astype(np.float32)
        out = layer_norm(x)
        assert out.dtype == np.float32
        core = layer_norm64(x.astype(np.float64), np.ones(32, np.float32), np.zeros(32, np.float32))
        assert out.tobytes() == core.astype(np.float32).tobytes()

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

    @pytest.mark.parametrize("shape", [(1, 6), (7, 6), (3, 40, 6), (2, 2, 5, 6)])
    def test_equals_fancy_index_reference_bitwise(self, rng, shape):
        x = rng.standard_normal(shape) * 30.0
        labels = rng.integers(0, shape[-1], size=shape[-2])
        loss, grad = cross_entropy(x, labels)
        ref_loss, ref_grad = fancy_index_cross_entropy(x, labels)
        assert np.array_equal(loss, ref_loss) and np.array_equal(grad, ref_grad)

    def test_does_not_modify_input(self, rng):
        x = rng.standard_normal((4, 3))
        before = x.copy()
        cross_entropy(x, np.array([0, 1, 2, 0]))
        assert np.array_equal(x, before)

    # float32 cannot hold 1e-300, so its floor is its smallest normal; float64 keeps 1e-300.
    @pytest.mark.parametrize("dtype, floor", [(np.float32, float(np.finfo(np.float32).tiny)),
                                              (np.float64, 1e-300)])
    def test_core_floors_an_underflowed_label_probability(self, dtype, floor):
        x = np.array([[0.0, -1000.0]], dtype=dtype)  # exp(-1000) is 0 in either dtype
        picked = np.empty(1, dtype=dtype)
        rowmax, rowsum = np.empty((2, 1, 1), dtype=dtype)
        loss, grad = cross_entropy64(x, np.array([1]), picked, rowmax, rowsum)
        assert loss.dtype == dtype and grad.dtype == dtype
        assert np.isfinite(loss) and loss == -np.log(dtype(floor))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_core_equals_fancy_index_reference_bitwise(self, data):
        x, labels = data.draw(logit_stacks())
        with np.errstate(over="ignore"):  # x - max overflows to -inf near -F32_MAX, exp gives 0
            ref_loss, ref_grad = fancy_index_cross_entropy(x, labels)
        for columns in (None, np.empty((x.shape[-1], *x.shape[:-1]), dtype=x.dtype)):
            with np.errstate(over="ignore"):
                loss, grad = cross_entropy(x, labels, columns)
            assert loss.tobytes() == np.asarray(ref_loss).tobytes()
            assert grad.dtype == x.dtype and grad.tobytes() == ref_grad.tobytes()

    # The head trainer's group (4 heads, batch 32 of 32 frames, 32 classes) and the
    # downstream probe's frame and sequence steps (batch 32, 32 frames, 32 labels).
    @pytest.mark.parametrize("shape, dtype", [((4, 1024, 32), np.float32),
                                              ((32, 32, 32), np.float64),
                                              ((32, 1, 32), np.float64)])
    def test_core_equals_fancy_index_reference_at_the_callers_shapes(self, rng, shape, dtype):
        x = (rng.standard_normal(shape) * 8.0).astype(dtype)
        x[..., ::3, 5] = x[..., ::3, 4]  # ties for the row max
        x[..., ::7, :] = 0.0
        x[..., ::7, ::2] = -0.0
        labels = rng.integers(0, shape[-1], size=shape[-2])
        ref_loss, ref_grad = fancy_index_cross_entropy(x, labels)
        for columns in (None, np.empty((shape[-1], *shape[:-1]), dtype=dtype)):
            loss, grad = cross_entropy(x, labels, columns)
            assert loss.tobytes() == ref_loss.tobytes() and grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_core_gives_a_non_finite_loss_for_a_row_holding_inf_or_nan(self, rng, dtype, bad):
        x = rng.standard_normal((3, 5, 4)).astype(dtype)
        x[1, 2, 3] = bad
        labels = rng.integers(0, 4, size=5)
        with np.errstate(invalid="ignore"):
            loss, grad = cross_entropy(x, labels, np.empty((4, 3, 5), dtype=dtype))
            ref_loss, ref_grad = fancy_index_cross_entropy(x, labels)
        assert np.isfinite(loss).tolist() == [True, False, True]
        assert np.array_equal(loss, ref_loss, equal_nan=True)
        assert np.array_equal(grad, ref_grad, equal_nan=True)

    @pytest.mark.parametrize("layout", ["strided", "transposed"])
    def test_core_writes_the_row_max_into_a_non_contiguous_rowmax(self, rng, layout):
        x = rng.standard_normal((3, 6, 5)) * 10.0
        labels = rng.integers(0, 5, size=6)
        if layout == "strided":
            rowmax = np.full((3, 6, 2), np.nan)[..., :1]
        else:
            rowmax = np.full((1, 6, 3), np.nan).transpose(2, 1, 0)
        assert rowmax.shape == (3, 6, 1) and not rowmax.flags.c_contiguous
        loss, grad = cross_entropy(x, labels, np.empty((5, 3, 6)), rowmax=rowmax)
        ref_loss, ref_grad = fancy_index_cross_entropy(x, labels)
        assert np.array_equal(rowmax, x.max(axis=-1, keepdims=True))
        assert loss.tobytes() == ref_loss.tobytes() and grad.tobytes() == ref_grad.tobytes()

    def test_core_takes_a_non_contiguous_columns_buffer(self, rng):
        x = rng.standard_normal((3, 6, 5)) * 10.0
        labels = rng.integers(0, 5, size=6)
        columns = np.empty((6, 3, 5)).transpose(2, 1, 0)
        assert columns.shape == (5, 3, 6) and not columns.flags.c_contiguous
        loss, grad = cross_entropy(x, labels, columns)
        ref_loss, ref_grad = fancy_index_cross_entropy(x, labels)
        assert loss.tobytes() == ref_loss.tobytes() and grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("shape", [(5, 18), (3, 6, 5), (5, 6, 3), (5, 1, 3, 6)])
    def test_core_refuses_a_columns_buffer_of_another_shape(self, rng, shape):
        x = rng.standard_normal((3, 6, 5))
        with pytest.raises(ValueError, match=r"columns must be .* \(5, 3, 6\); got"):
            cross_entropy(x, np.zeros(6, dtype=np.int64), np.empty(shape))


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
        # The trainer computes in float32. Every value checked here is of order 1 and lies
        # a few float32 roundings from this float64 formula (a 5-term logit, the softmax,
        # a 24-row gradient sum, the final rounding of the weights), so 8 float32 epsilons
        # (about 9.5e-7) bound it; over 200 seeds the largest gap was 0.34 epsilon.
        tol = 8 * np.finfo(np.float32).eps
        assert loss[0, 0] == pytest.approx(expect_loss, abs=tol)
        assert np.allclose(w[0], weights[0] - 0.5 * grad.T @ x, rtol=0, atol=tol)
        assert np.allclose(b[0], -0.5 * grad.sum(axis=0), rtol=0, atol=tol)

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

    @pytest.mark.parametrize("heads", [1, 3, 8])
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_equals_per_step_cast_loop_bitwise(self, rng, heads, batch_size):
        # N = 5 sequences, so a batch of 32 repeats indices and a batch of 1
        # repeats across steps.
        cache = rng.standard_normal((heads, 5, self.T, self.DIM)).astype(np.float32)
        labels = rng.integers(0, self.C, size=(5, self.T)).astype(np.int32)
        weights = (rng.standard_normal((heads, self.C, self.DIM)) * 0.1).astype(np.float32)
        biases = (rng.standard_normal((heads, self.C)) * 0.1).astype(np.float32)
        args = (cache, labels, weights, biases, 0.3, 12, batch_size, 11)
        for got, expect in zip(train_linear_heads(*args), float32_per_step_heads(*args)):
            assert np.array_equal(got, expect)

    def test_empty_batch_rejected(self, rng):
        cache, labels, weights, biases = self._problem(rng)
        with pytest.raises(ValueError, match="batch_size must be at least 1, got 0"):
            train_linear_heads(
                cache, labels, weights, biases, lr=0.5, steps=5, batch_size=0, seed=7
            )


def _train_args(rng, heads, num_sequences=5, frames=6, dim=5, classes=4):
    cache = rng.standard_normal((heads, num_sequences, frames, dim)).astype(np.float32)
    labels = rng.integers(0, classes, size=(num_sequences, frames)).astype(np.int32)
    weights = (rng.standard_normal((heads, classes, dim)) * 0.1).astype(np.float32)
    biases = (rng.standard_normal((heads, classes)) * 0.1).astype(np.float32)
    return dict(cache=cache, labels=labels, weights=weights, biases=biases, lr=0.3, steps=12,
                batch_size=4, seed=11)


def _use_workers(monkeypatch, workers):
    """Pretend `workers` CPUs are usable and record each head group's (first head, heads)."""
    groups = []
    train_group = numeric._train_head_group

    def recording(cache, *args):
        groups.append((args[-1], cache.shape[0]))
        return train_group(cache, *args)

    monkeypatch.setattr(numeric, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(numeric, "_train_head_group", recording)
    return groups


class TestHeadGroups:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("heads", [1, 3, 8])
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_any_grouping_equals_per_step_cast_loop_bitwise(
        self, rng, monkeypatch, workers, heads, batch_size
    ):
        groups = _use_workers(monkeypatch, workers)
        args = _train_args(rng, heads)
        args["batch_size"] = batch_size
        expect = float32_per_step_heads(**args)
        first = train_linear_heads(**args)
        second = train_linear_heads(**args)
        for a, b, ref in zip(first, second, expect):
            assert np.array_equal(a, ref)
            assert np.array_equal(b, ref)
        count = min(heads, workers)
        bounds = [heads * g // count for g in range(count + 1)]
        expect_groups = [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        assert sorted(groups) == sorted(expect_groups * 2)

    def test_more_workers_than_cores_under_fast_thread_switching(self, rng, monkeypatch):
        groups = _use_workers(monkeypatch, 8)
        args = _train_args(rng, 8)
        args["steps"] = 40
        expect = float32_per_step_heads(**args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = train_linear_heads(**args)
        finally:
            sys.setswitchinterval(interval)
        assert len(groups) == 8
        for a, ref in zip(got, expect):
            assert np.array_equal(a, ref)

    def test_workers_call_no_traced_function(self, rng, monkeypatch):
        # perfbench's tracer keeps one span stack and wraps numeric.matmul64.
        main = threading.main_thread()

        def main_thread_only(a, b):
            if threading.current_thread() is not main:
                raise AssertionError("matmul64 called from a worker thread")
            return np.matmul(a.astype(np.float64), b.astype(np.float64))

        monkeypatch.setattr(numeric, "matmul64", main_thread_only)
        groups = _use_workers(monkeypatch, 2)
        w, b, losses = train_linear_heads(**_train_args(rng, 8))
        assert sorted(groups) == [(0, 4), (4, 4)]
        assert w.shape == (8, 4, 5) and losses.shape == (12, 8)

    def test_peak_memory_below_half_the_cache(self, monkeypatch):
        # A copy of either head group's cache slice alone would take half the cache.
        _use_workers(monkeypatch, 2)
        rng = np.random.default_rng(5)
        cache = rng.standard_normal((8, 512, 8, 32), dtype=np.float32)
        labels = rng.integers(0, 4, size=(512, 8)).astype(np.int32)
        weights = np.zeros((8, 4, 32), dtype=np.float32)
        biases = np.zeros((8, 4), dtype=np.float32)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_linear_heads(cache, labels, weights, biases, 0.1, 3, 8, 0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert 0 < peak < cache.nbytes / 2


def _nan_at_start(name):
    def mutate(args):
        args[name] = args[name].copy()
        args[name].flat[3] = np.nan
    return mutate


def _inf_at_start(name):
    def mutate(args):
        args[name] = args[name].copy()
        args[name].flat[0] = np.inf
    return mutate


BAD_TRAINER_INPUTS = [
    ("batch_size", lambda a: a.update(batch_size=0), "batch_size must be at least 1, got 0"),
    ("steps", lambda a: a.update(steps=-1), "steps must be nonnegative, got -1"),
    ("lr_nan", lambda a: a.update(lr=float("nan")), "learning rate must be finite"),
    ("lr_inf", lambda a: a.update(lr=float("inf")), "learning rate must be finite"),
    ("lr_negative", lambda a: a.update(lr=-0.1), "learning rate must be finite and nonnegative"),
    ("labels_shape", lambda a: a.update(labels=a["labels"][:, :-1]), r"labels must be \(N, T\)"),
    ("labels_float", lambda a: a.update(labels=a["labels"].astype(np.float32)),
     r"labels must be \(N, T\)"),
    ("labels_high", lambda a: a.update(labels=a["labels"] + 4), r"labels must lie in \[0, 4\)"),
    ("labels_negative", lambda a: a.update(labels=a["labels"] - 1),
     r"labels must lie in \[0, 4\)"),
    ("cache_nan", _nan_at_start("cache"), "cache contains non-finite values"),
    ("cache_inf", _inf_at_start("cache"), "cache contains non-finite values"),
    ("cache_ndim", lambda a: a.update(cache=a["cache"][0]), "cache must be a nonempty"),
    ("cache_empty", lambda a: a.update(cache=a["cache"][:, :0], labels=a["labels"][:0]),
     "cache must be a nonempty"),
    ("weights_inf", _inf_at_start("weights"), "starting weights contain non-finite values"),
    ("biases_nan", _nan_at_start("biases"), "starting biases contain non-finite values"),
    ("weights_heads", lambda a: a.update(weights=a["weights"][:2]), r"weights must be \(H, C, d\)"),
    ("weights_dim", lambda a: a.update(weights=a["weights"][:, :, :-1]),
     r"weights must be \(H, C, d\)"),
    ("biases_classes", lambda a: a.update(biases=a["biases"][:, :-1]), r"biases must be \(H, C\)"),
]


class TestTrainerBoundary:
    @pytest.mark.parametrize(
        "mutate, message", [case[1:] for case in BAD_TRAINER_INPUTS],
        ids=[case[0] for case in BAD_TRAINER_INPUTS],
    )
    def test_bad_input_rejected_by_name(self, rng, mutate, message):
        args = _train_args(rng, 3)
        mutate(args)
        with pytest.raises(ValueError, match=message):
            train_linear_heads(**args)

    def test_diverging_lr_names_head_and_step_before_any_warning(self, rng):
        # Head 1 sees features near float32's range; lr = 1e6 drives its weights past it.
        args = _train_args(rng, 3)
        args["cache"][1] *= np.float32(1e33)
        args.update(lr=1e6, steps=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="head 1 diverged at step 1: "):
                train_linear_heads(**args)

    def test_float32_logit_overflow_names_the_head_before_any_warning(self, rng):
        # One head, as the teacher trains: features near 1e30 and lr = 1e-20 move the weights
        # to about 1e9 at step 0, well inside float32, so step 1's logits overflow float32
        # while the float64 update is still in range.
        args = _train_args(rng, 1)
        args["cache"] *= np.float32(1e30)
        args.update(lr=1e-20, steps=1)
        w, b, losses = train_linear_heads(**args)
        assert np.isfinite(losses).all()
        assert 1e6 < np.abs(w).max() < 1e12 and np.abs(b).max() < 1e12
        args.update(steps=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="head 0 diverged at step 1: its logits overflow"):
                train_linear_heads(**args)

    def test_sane_lr_on_the_same_features_trains(self, rng):
        args = _train_args(rng, 3)
        args["cache"][1] *= np.float32(1e33)
        args.update(lr=1e-30, steps=200)
        w, _, losses = train_linear_heads(**args)
        assert np.isfinite(w).all() and np.isfinite(losses).all()


def fancy_index_cross_entropy(logits, labels):
    """Reference: softmax cross-entropy by fancy indexing, on a fresh softmax array.

    float32 logits are computed in float32, any others in float64; the loss
    is the float64 mean of the rows' losses.
    """
    x = np.asarray(logits)
    x = x if x.dtype == np.float32 else x.astype(np.float64)
    probs = x - x.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    rows = probs.shape[-2]
    idx = np.arange(rows)
    picked = np.ascontiguousarray(probs[..., idx, labels])
    floor = max(1e-300, float(np.finfo(x.dtype).tiny))
    # Each row's loss is negated before the mean, as in the core: a zero mean stays +0.0.
    loss = np.negative(np.log(np.maximum(picked, floor))).mean(axis=-1, dtype=np.float64)
    probs[..., idx, labels] -= 1.0
    probs /= rows
    return loss, probs


# Values a row max must get right: ties, both zeros and the float32 extremes.
EDGE_LOGITS = [0.0, -0.0, 1.0, -1.0, F32_MAX, -F32_MAX,
               float(np.nextafter(np.float32(F32_MAX), np.float32(0))), -3.4e38, 1e-45]


@st.composite
def logit_stacks(draw):
    """(x, labels): a float32 or float64 stack of 1-300 rows of 1-40 logits, with edge values."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (*draw(st.sampled_from([(), (1,), (3,), (2, 2)])), draw(st.integers(1, 300)),
             draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0, 1e4, 1e37]))
    x = rng.standard_normal(shape) * scale
    edges = rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    x[edges] = rng.choice(draw(st.lists(st.sampled_from(EDGE_LOGITS), min_size=1)), edges.sum())
    return x.astype(dtype), rng.integers(0, shape[-1], size=shape[-2])


def float32_per_step_heads(cache, labels, weights, biases, lr, steps, batch_size, seed):
    """Reference trainer: float32 products and loss on a fresh gather, `sgd_step` updates."""
    heads, num_sequences, _, dim = cache.shape
    rng = new_rng(seed)
    losses = np.empty((steps, heads), dtype=np.float64)
    for step in range(steps):
        batch = rng.integers(0, num_sequences, size=batch_size)
        feats = cache[:, batch].reshape(heads, -1, dim)
        logits = feats @ weights.transpose(0, 2, 1) + biases[:, None, :]
        assert logits.dtype == np.float32
        losses[step], dlogits = fancy_index_cross_entropy(logits, labels[batch].reshape(-1))
        weights = sgd_step(weights, dlogits.transpose(0, 2, 1) @ feats, lr)
        biases = sgd_step(biases, dlogits.sum(axis=1), lr)
    return weights, biases, losses


def numpy_scalar_running_mean(values):
    """Reference: the recurrence over numpy float64 scalars that `running_mean` ran."""
    mean = 0.0
    count = 0
    for value in np.asarray(values, dtype=np.float64).ravel():
        count += 1
        mean += (value - mean) / count
    return mean


class TestRunningMean:
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
        )
    )
    def test_equals_numpy_scalar_loop_bitwise(self, values):
        got = running_mean(values)
        assert type(got) is float
        assert np.float64(got).tobytes() == numpy_scalar_running_mean(values).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            running_mean([])


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
