from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from adaexit import branches as branches_module
from adaexit import encoder as encoder_module
from adaexit.branches import entropy_table, train_branches
from adaexit.encoder import forward_all, hidden_state_cache, parameter_digest
from adaexit.errors import ConfigError
from adaexit.numeric import layer_norm, new_rng, sgd_step, softmax
from adaexit.policy import ExitPolicy, decide_exits, fixed_exit_policy
from adaexit.probe import (
    TASKS,
    DownstreamHead,
    LayerTable,
    build_layer_table,
    evaluate,
    evaluate_static,
    init_downstream_head,
    normalize_prefix,
    prefix_weights,
    replay_evaluate,
    _ProbeStep,
    _train_probe,
    train_downstream,
    weighted_features,
)
from adaexit.teacher import train_teacher

from conftest import (
    SMALL_ENCODER,
    assert_served_exits,
    cross_entropy,
    probe_step,
    sample_entropies,
    truncated_forward,
)


@pytest.fixture(scope="module")
def stack(small_encoder, small_dataset):
    teacher = train_teacher(small_encoder, small_dataset, lr=0.3, steps=60, seed=5).head
    branches = train_branches(
        small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=150, seed=6
    ).branches
    return small_encoder, branches


@pytest.fixture(scope="module")
def policy(small_encoder):
    return ExitPolicy(threshold=0.5, ratio=0.7, num_layers=small_encoder.config.num_layers)


def _random_head(rng, num_layers=SMALL_ENCODER.num_layers, num_labels=5,
                 dim=SMALL_ENCODER.model_dim):
    return DownstreamHead(
        layer_weights=rng.standard_normal(num_layers).astype(np.float32),
        probe_weight=rng.standard_normal((num_labels, dim)).astype(np.float32) * np.float32(0.2),
        probe_bias=rng.standard_normal(num_labels).astype(np.float32) * np.float32(0.1),
    )


def reference_loss_and_grads(head, feats64, labels, task):
    """One sample's loss, feature gradient and probe gradients: the per-sample loop's kernel."""
    frames = feats64.shape[0]
    w64 = head.probe_weight.astype(np.float64)
    if task == "frame":
        logits = feats64 @ w64.T + head.probe_bias.astype(np.float64)
        loss, dlogits = cross_entropy(logits, labels)
        return float(loss), dlogits @ w64, dlogits.T @ feats64, dlogits.sum(axis=0)
    pooled = feats64.mean(axis=0)
    logits = w64 @ pooled + head.probe_bias.astype(np.float64)
    loss, dlogits = cross_entropy(logits[None], np.array([int(labels)]))
    dlogits = dlogits[0]
    d_feats = np.tile((dlogits @ w64) / frames, (frames, 1))
    return float(loss), d_feats, np.outer(dlogits, pooled), dlogits


def reference_layer_weight_grad(head, prefix, d_feats, renormalize):
    """Gradient of one sample's loss w.r.t. the raw layer weights."""
    length = prefix.shape[0]
    per_layer = np.einsum("ktd,td->k", prefix.astype(np.float64), d_feats)
    grad = np.zeros(head.num_layers, dtype=np.float64)
    if renormalize:
        weights = softmax(head.layer_weights[:length])
        grad[:length] = weights * (per_layer - float(weights @ per_layer))
    else:
        weights = softmax(head.layer_weights)
        contrib = np.zeros(head.num_layers, dtype=np.float64)
        contrib[:length] = per_layer
        grad = weights * (contrib - float(weights @ contrib))
    return grad


def reference_step(cache, exits, labels, head, batch, renormalize):
    """A batch's mean loss and gradients one sample at a time: the probe step before batching."""
    task = "sequence" if labels.ndim == 1 else "frame"
    g_lw = np.zeros(head.num_layers, dtype=np.float64)
    g_pw = np.zeros_like(head.probe_weight, dtype=np.float64)
    g_pb = np.zeros_like(head.probe_bias, dtype=np.float64)
    batch_loss = 0.0
    for i in batch:
        prefix = cache[: exits[i], i]
        feats = weighted_features(head, prefix, renormalize)
        loss, d_feats, d_pw, d_pb = reference_loss_and_grads(head, feats, labels[i], task)
        batch_loss += loss
        g_pw += d_pw
        g_pb += d_pb
        g_lw += reference_layer_weight_grad(head, prefix, d_feats, renormalize)
    n = len(batch)
    return batch_loss / n, g_lw / n, g_pw / n, g_pb / n


def reference_sgd(head, grads, lr):
    _, g_lw, g_pw, g_pb = grads
    return DownstreamHead(
        sgd_step(head.layer_weights, g_lw, lr),
        sgd_step(head.probe_weight, g_pw, lr),
        sgd_step(head.probe_bias, g_pb, lr),
    )


def reference_train_probe(cache, exits, labels, head, lr, steps, batch_size, seed, renormalize):
    """The probe's SGD loop over `reference_step`, as `train_downstream` ran it before batching."""
    rng = new_rng(seed)
    losses = []
    for _ in range(steps):
        batch = rng.integers(0, len(exits), size=batch_size)
        grads = reference_step(cache, exits, labels, head, batch, renormalize)
        head = reference_sgd(head, grads, lr)
        losses.append(grads[0])
    return head, losses


class TestNormalizePrefix:
    def test_constant_rows_become_zero(self, small_encoder):
        hs = np.full((1, 4, SMALL_ENCODER.model_dim), 2.5, dtype=np.float32)
        prefix = normalize_prefix(hs, 1)
        assert np.allclose(prefix[0], 0.0, atol=1e-2)

    def test_single_layer_prefix(self, small_encoder, small_dataset):
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        prefix = normalize_prefix(hs, 1)
        assert prefix.shape == (1, *hs[0].shape)

    def test_per_vector_statistics_oracle(self, small_encoder, small_dataset):
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        prefix = normalize_prefix(hs, 2)
        for k in range(2):
            rows = prefix[k].astype(np.float64)
            assert np.allclose(rows.mean(axis=1), 0.0, atol=1e-5)
            assert np.allclose(rows.var(axis=1), 1.0, atol=1e-3)

    def test_exceeding_computed_layers_rejected(self, small_encoder, small_dataset):
        hs = truncated_forward(small_encoder, small_dataset.inputs[0], 2)
        with pytest.raises(ValueError):
            normalize_prefix(hs, 3)

    def test_zero_layers_rejected(self, small_encoder, small_dataset):
        # states[:0] would be an empty prefix, not an error.
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        with pytest.raises(ValueError, match="exit layer 0 not computed"):
            normalize_prefix(hs, 0)

    def test_one_call_equals_per_layer_calls_bitwise(self, small_encoder, small_dataset):
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        for k in range(1, SMALL_ENCODER.num_layers + 1):
            expect = np.stack([layer_norm(hs[j]) for j in range(k)])
            prefix = normalize_prefix(hs, k)
            assert prefix.dtype == expect.dtype and np.array_equal(prefix, expect)


class TestWeightedFeatures:
    def test_single_layer_is_identity(self, small_encoder, small_dataset, rng):
        head = _random_head(rng)
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        prefix = normalize_prefix(hs, 1)
        feats = weighted_features(head, prefix)
        assert np.allclose(feats, prefix[0], atol=1e-6)

    def test_equal_weights_average(self, small_encoder, small_dataset, rng):
        head = _random_head(rng)
        head = DownstreamHead(
            layer_weights=np.zeros(SMALL_ENCODER.num_layers, dtype=np.float32),
            probe_weight=head.probe_weight,
            probe_bias=head.probe_bias,
        )
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        prefix = normalize_prefix(hs, 2)
        feats = weighted_features(head, prefix)
        mean = (prefix[0].astype(np.float64) + prefix[1].astype(np.float64)) / 2
        assert np.allclose(feats, mean, atol=1e-6)

    def test_softmax_oracle(self, small_encoder, small_dataset, rng):
        head = _random_head(rng)
        raw = np.zeros(SMALL_ENCODER.num_layers, dtype=np.float32)
        raw[0] = math.log(1)
        raw[1] = math.log(3)
        head = DownstreamHead(raw, head.probe_weight, head.probe_bias)
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        prefix = normalize_prefix(hs, 2)
        feats = weighted_features(head, prefix)
        expect = 0.25 * prefix[0].astype(np.float64) + 0.75 * prefix[1].astype(np.float64)
        assert np.allclose(feats, expect, atol=1e-6)

    def test_renormalized_weights_sum_to_one(self, rng):
        head = _random_head(rng)
        for length in range(1, SMALL_ENCODER.num_layers + 1):
            assert prefix_weights(head, length).sum() == pytest.approx(1.0, abs=1e-6)

    def test_global_mode_truncates_mass(self, rng):
        head = _random_head(rng)
        partial = prefix_weights(head, 2, renormalize=False)
        assert partial.sum() < 1.0
        full = prefix_weights(head, SMALL_ENCODER.num_layers, renormalize=False)
        assert full.sum() == pytest.approx(1.0, abs=1e-6)


class TestTrainDownstream:
    def test_loss_decreases(self, stack, policy, small_dataset):
        enc, branches = stack
        head = init_downstream_head(
            SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
        )
        result = train_downstream(
            enc, branches, policy, head, small_dataset, lr=0.5, steps=120, seed=8
        )
        tenth = len(result.losses) // 10
        assert np.mean(result.losses[-tenth:]) < np.mean(result.losses[:tenth])

    def test_frozen_contract(self, stack, policy, small_dataset):
        enc, branches = stack
        digest = parameter_digest(enc)
        weights_before = branches.weights.copy()
        head = init_downstream_head(
            SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
        )
        train_downstream(enc, branches, policy, head, small_dataset, lr=0.5, steps=15, seed=8)
        assert parameter_digest(enc) == digest
        assert np.array_equal(branches.weights, weights_before)

    def test_high_threshold_reduces_to_single_layer_probe(self, stack, small_dataset):
        enc, branches = stack
        always_first = ExitPolicy(
            threshold=math.log(32) + 1, ratio=1.0, num_layers=SMALL_ENCODER.num_layers
        )
        head = init_downstream_head(
            SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
        )
        result = train_downstream(
            enc, branches, always_first, head, small_dataset, lr=0.5, steps=10, seed=8
        )
        assert result.exits.tolist() == [1] * small_dataset.num_sequences
        assert not result.forced.any()
        assert result.span_stats.mean == 1.0

    def test_span_stats_one_trace_per_sample(self, stack, policy, small_dataset):
        enc, branches = stack
        head = init_downstream_head(
            SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
        )
        result = train_downstream(
            enc, branches, policy, head, small_dataset, lr=0.5, steps=5, seed=8
        )
        n = small_dataset.num_sequences
        assert result.entropies.shape == (n, SMALL_ENCODER.num_layers)
        assert result.exits.shape == result.forced.shape == (n,)
        exits, forced = decide_exits(policy, result.entropies)
        assert np.array_equal(result.exits, exits) and np.array_equal(result.forced, forced)
        assert result.span_stats.num_samples == small_dataset.num_sequences

    def test_kept_entropy_table_gives_the_computed_result(self, stack, policy, small_dataset):
        # An encoder that keeps the table (as `train_branches` leaves it)
        # decides its exits from it and computes no entropy.
        enc, branches = stack
        head = init_downstream_head(
            SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
        )

        def train(on):
            return train_downstream(
                on, branches, policy, head, small_dataset, lr=0.5, steps=15, seed=8
            )

        computed = train(dataclasses.replace(enc))
        keeping = dataclasses.replace(enc)
        kept = entropy_table(keeping, branches, small_dataset.inputs)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(branches_module, "batch_entropies", None)
            given = train(keeping)
        assert given.entropies is kept
        assert given.entropies.tobytes() == computed.entropies.tobytes()
        assert np.array_equal(given.exits, computed.exits)
        assert np.array_equal(given.forced, computed.forced)
        assert given.span_stats == computed.span_stats
        assert given.losses == computed.losses
        for name in ("layer_weights", "probe_weight", "probe_bias"):
            assert getattr(given.head, name).tobytes() == getattr(computed.head, name).tobytes()

    def test_gradients_match_finite_differences(self, stack, small_dataset):
        # Two-sample toy batch; checks probe weight and raw layer weight grads.
        enc, branches = stack
        rng = np.random.default_rng(3)
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        samples = [0, 1]
        step = probe_step(
            [normalize_prefix(forward_all(enc, small_dataset.inputs[i]), 3) for i in samples],
            small_dataset.labels[samples], head, renormalize=True,
        )
        batch = np.arange(len(samples))

        def total_loss(h):
            return step(h, batch)[0]

        _, g_lw, g_pw, _ = step(head, batch)

        h = 1e-3
        for c, j in [(0, 0), (1, 3), (2, 7)]:
            w = head.probe_weight.copy()
            w[c, j] += h
            up = total_loss(DownstreamHead(head.layer_weights, w, head.probe_bias))
            w[c, j] -= 2 * h
            down = total_loss(DownstreamHead(head.layer_weights, w, head.probe_bias))
            fd = (up - down) / (2 * h)
            assert abs(g_pw[c, j] - fd) / max(abs(fd), 1e-8) < 1e-4
        for k in (0, 1, 2):
            lw = head.layer_weights.copy()
            lw[k] += h
            up = total_loss(DownstreamHead(lw, head.probe_weight, head.probe_bias))
            lw[k] -= 2 * h
            down = total_loss(DownstreamHead(lw, head.probe_weight, head.probe_bias))
            fd = (up - down) / (2 * h)
            assert abs(g_lw[k] - fd) / max(abs(fd), 1e-8) < 1e-4

    def test_sequence_task_trains(self, stack, policy, small_dataset):
        enc, branches = stack
        head = init_downstream_head(
            SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
        )
        result = train_downstream(
            enc, branches, policy, head, small_dataset, lr=0.5, steps=80, seed=8,
            task="sequence",
        )
        tenth = len(result.losses) // 10
        assert np.mean(result.losses[-tenth:]) < np.mean(result.losses[:tenth])


def _normalized_cache(enc, data):
    cache = hidden_state_cache(enc, data.inputs).copy()  # the encoder keeps the read-only one
    for layer in cache:
        layer[...] = layer_norm(layer)
    return cache


def _labels(data, task):
    if task == "frame":
        return data.labels
    return np.array([np.bincount(y, minlength=data.num_classes).argmax() for y in data.labels])


class TestBatchedProbeStep:
    """`_train_probe` against the per-sample loop kept here, bit for bit."""

    def _assert_same(self, cache, exits, labels, head, steps, batch_size, renormalize, lr=0.5):
        # Every step's float64 loss and gradients, before float32 rounding hides a last bit...
        step = _ProbeStep(cache, exits, labels, head.num_labels, batch_size, renormalize)
        rng = new_rng(8)
        current = head
        for _ in range(steps):
            batch = rng.integers(0, len(exits), size=batch_size)
            expect = reference_step(cache, exits, labels, current, batch, renormalize)
            got = step(current, batch)
            for a, b in zip(got, expect, strict=True):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            current = reference_sgd(current, expect, lr)
        # ...and the training loop around them.
        args = (cache, exits, labels, head, lr, steps, batch_size, 8, renormalize)
        got, got_losses = _train_probe(*args)
        expect, expect_losses = reference_train_probe(*args)
        for name in ("layer_weights", "probe_weight", "probe_bias"):
            assert getattr(got, name).tobytes() == getattr(expect, name).tobytes(), name
        assert got_losses == expect_losses

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("exit_kind", ["mixed", "one-depth"])
    @pytest.mark.parametrize("batch_size", [1, 8, 64])
    def test_equals_per_sample_loop(
        self, small_encoder, small_dataset, task, renormalize, exit_kind, batch_size
    ):
        # 64 draws from 40 samples repeat some; every depth occurs when mixed.
        rng = np.random.default_rng(17)
        cache = _normalized_cache(small_encoder, small_dataset)
        n, num_layers = small_dataset.num_sequences, SMALL_ENCODER.num_layers
        if exit_kind == "mixed":
            exits = rng.permutation(np.arange(n) % num_layers + 1)
        else:
            exits = np.full(n, 2)
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        self._assert_same(
            cache, exits, _labels(small_dataset, task), head, 12, batch_size, renormalize
        )

    @pytest.mark.parametrize("task", TASKS)
    def test_equals_per_sample_loop_past_einsum_buffer(self, task):
        # frames * model_dim = 9600 exceeds numpy einsum's 8192-element buffer,
        # where a layer-weight einsum shared by samples would round differently.
        rng = np.random.default_rng(23)
        num_layers, n, frames, dim, classes = 3, 6, 150, 64, 4
        cache = layer_norm(rng.standard_normal((num_layers, n, frames, dim)))
        exits = np.array([1, 2, 3, 3, 2, 3])
        labels = rng.integers(0, classes, size=(n, frames)).astype(np.int32)
        if task == "sequence":
            labels = labels[:, 0]
        head = _random_head(rng, num_layers=num_layers, num_labels=classes, dim=dim)
        for renormalize in (True, False):
            self._assert_same(cache, exits, labels, head, 4, 5, renormalize)

    def test_diverging_lr_fails_by_name(self, stack, policy, small_dataset):
        enc, branches = stack
        head = init_downstream_head(
            SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
        )
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^downstream probe diverged at step \d+"):
                train_downstream(
                    enc, branches, policy, head, small_dataset, lr=1e39, steps=20, seed=8
                )


class TestEvaluate:
    def test_forced_full_depth_saves_nothing(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        policy = ExitPolicy(threshold=0.0, ratio=0.0, num_layers=SMALL_ENCODER.num_layers)
        record = evaluate(enc, branches, policy, head, small_dataset)
        assert record["layer_compute_saved"] == 0.0
        assert record["mean_exit_layer"] == SMALL_ENCODER.num_layers

    def test_half_depth_saves_half(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        policy = fixed_exit_policy(SMALL_ENCODER.num_layers // 2, SMALL_ENCODER.num_layers)
        record = evaluate(enc, branches, policy, head, small_dataset)
        assert record["layer_compute_saved"] == 0.5

    def test_mixed_exit_arithmetic(self):
        # 4 samples exiting at 2, 4, 6, 8 of L=8: saved = 1 - 20/32
        exits = np.array([2, 4, 6, 8])
        assert 1 - exits.sum() / (4 * 8) == pytest.approx(0.375)

    def test_histogram_fractions_sum_to_one(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        policy = ExitPolicy(threshold=0.4, ratio=0.7, num_layers=SMALL_ENCODER.num_layers)
        record = evaluate(enc, branches, policy, head, small_dataset)
        assert sum(frac for _, _, frac in record["exit_histogram"]) == pytest.approx(1.0)
        assert sum(count for _, count, _ in record["exit_histogram"]) == (
            small_dataset.num_sequences
        )

    def test_static_equivalence(self, stack, small_dataset, rng):
        # The exit machinery pinned to layer k must reproduce the statically
        # truncated model exactly.
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        for k in (1, 2, 4):
            pinned = evaluate(
                enc, branches, fixed_exit_policy(k, SMALL_ENCODER.num_layers),
                head, small_dataset,
            )
            static = evaluate_static(enc, head, small_dataset, k)
            assert pinned["accuracy"] == static["accuracy"]
            assert pinned["mean_exit_layer"] == static["mean_exit_layer"]

    def test_sequence_task_scores_per_sample(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        policy = fixed_exit_policy(2, SMALL_ENCODER.num_layers)
        record = evaluate(enc, branches, policy, head, small_dataset, task="sequence")
        assert 0.0 <= record["accuracy"] <= 1.0

    def test_static_layer_out_of_range(self, stack, small_dataset, rng):
        enc, _ = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        with pytest.raises(ValueError):
            evaluate_static(enc, head, small_dataset, SMALL_ENCODER.num_layers + 1)

    def test_unknown_task_rejected_by_every_entry_point(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        policy = fixed_exit_policy(2, SMALL_ENCODER.num_layers)
        calls = [
            lambda: evaluate_static(enc, head, small_dataset, 2, task="frames"),
            lambda: evaluate(enc, branches, policy, head, small_dataset, task="frames"),
            lambda: build_layer_table(enc, branches, small_dataset, head, task="frames"),
            lambda: train_downstream(
                enc, branches, policy, head, small_dataset, lr=0.1, steps=1, seed=0,
                task="frames",
            ),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="task must be one of"):
                call()

    @pytest.mark.parametrize("offset", [-2, 1])
    def test_head_of_another_label_count_rejected_by_every_entry_point(
        self, stack, small_dataset, rng, offset, monkeypatch
    ):
        # A 3-label head on 5-class data used to die in training with a bare IndexError.
        enc, branches = stack
        labels = small_dataset.num_classes + offset
        head = _random_head(rng, num_labels=labels)
        policy = fixed_exit_policy(2, SMALL_ENCODER.num_layers)
        calls = [
            lambda: evaluate_static(enc, head, small_dataset, 2),
            lambda: evaluate(enc, branches, policy, head, small_dataset),
            lambda: build_layer_table(enc, branches, small_dataset, head),
            lambda: train_downstream(
                enc, branches, policy, head, small_dataset, lr=0.1, steps=1, seed=0
            ),
        ]
        monkeypatch.setattr(encoder_module, "_embed", None)  # no forward may start
        message = (
            f"^head num_labels {labels} is not the dataset's num_classes "
            f"{small_dataset.num_classes}$"
        )
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


class TestLayerTable:
    def test_replay_matches_reference_on_random_head(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        table = build_layer_table(enc, branches, small_dataset, head)
        assert table.entropies.shape == (small_dataset.num_sequences, SMALL_ENCODER.num_layers)
        for threshold in (0.0, 0.4, 0.8, 10.0):
            policy = ExitPolicy(
                threshold=threshold, ratio=0.7, num_layers=SMALL_ENCODER.num_layers
            )
            assert replay_evaluate(table, policy) == evaluate(
                enc, branches, policy, head, small_dataset
            )

    def test_rows_are_sample_entropies(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        table = build_layer_table(enc, branches, small_dataset, head)
        for row, x in zip(table.entropies, small_dataset.inputs):
            assert np.array_equal(row, sample_entropies(branches, forward_all(enc, x)))

    def test_pinned_policy_replays_as_static(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        table = build_layer_table(enc, branches, small_dataset, head)
        policy = fixed_exit_policy(2, SMALL_ENCODER.num_layers)
        exits, forced = decide_exits(policy, table.entropies)
        assert exits.tolist() == [2] * small_dataset.num_sequences
        assert forced.all()  # threshold 0: no entropy is below it
        assert_served_exits(
            enc, branches, policy, small_dataset.inputs, table.entropies, exits, forced
        )
        reference = evaluate_static(enc, head, small_dataset, 2)
        replayed = replay_evaluate(table, policy)
        assert {key: replayed[key] for key in reference} == reference

    def test_mismatched_policy_and_empty_rows_rejected(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        table = build_layer_table(enc, branches, small_dataset, head)
        deeper = ExitPolicy(0.5, 0.5, SMALL_ENCODER.num_layers + 1)
        with pytest.raises(ConfigError, match="policy is for 5 layers"):
            replay_evaluate(table, deeper)
        policy = ExitPolicy(0.5, 0.5, SMALL_ENCODER.num_layers)
        with pytest.raises(ValueError, match="empty"):
            replay_evaluate(table, policy, rows=[])
        no_rows = LayerTable(
            entropies=table.entropies[:0], correct=table.correct[:0], scored=table.scored[:0],
            task="frame",
        )
        with pytest.raises(ValueError, match="empty"):
            replay_evaluate(no_rows, policy, rows=None)

    def test_evaluate_has_no_timing(self, stack, small_dataset, rng):
        enc, branches = stack
        head = _random_head(rng, num_labels=small_dataset.num_classes)
        record = evaluate(
            enc, branches, fixed_exit_policy(2, SMALL_ENCODER.num_layers), head, small_dataset
        )
        assert "timing" not in record
