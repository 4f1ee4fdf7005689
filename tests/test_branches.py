from __future__ import annotations

import math

import numpy as np
import pytest

from adaexit import branches as branches_module
from adaexit.branches import (
    BranchSet,
    EntropyProfile,
    batch_entropies,
    branch_entropy,
    branch_logits,
    entropy_profile,
    init_branches,
    sample_entropies,
    train_branches,
)
from adaexit.data import FrameDataset
from adaexit.encoder import (
    FORWARD_CHUNK,
    forward_all,
    hidden_state_cache,
    init_encoder,
    parameter_digest,
)
from adaexit.numeric import entropy64, softmax, train_linear_heads
from adaexit.teacher import pseudo_labels, train_teacher

from conftest import SMALL_ENCODER, truncated_forward


@pytest.fixture(scope="module")
def teacher(small_encoder, small_dataset):
    return train_teacher(small_encoder, small_dataset, lr=0.3, steps=80, seed=5).head


@pytest.fixture(scope="module")
def trained(small_encoder, small_dataset, teacher):
    return train_branches(
        small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=250, seed=6
    ).branches


def _mean_ce_per_layer(enc, head, branches, data):
    totals = np.zeros(branches.num_layers)
    for i in range(data.num_sequences):
        hs = forward_all(enc, data.inputs[i])
        from adaexit.teacher import pseudo_labels

        targets = pseudo_labels(head, hs[-1])
        for k in range(1, branches.num_layers + 1):
            probs = softmax(branch_logits(branches, hs[k - 1], k))
            picked = probs[np.arange(targets.shape[0]), targets]
            totals[k - 1] += float(-np.log(np.maximum(picked, 1e-300)).mean())
    return totals / data.num_sequences


class TestTraining:
    def test_zero_steps_is_zero_init(self, small_encoder, teacher, small_dataset):
        result = train_branches(
            small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=0, seed=6
        )
        assert not result.branches.weights.any()
        assert not result.branches.biases.any()

    def test_heldout_ce_improves_for_every_layer(
        self, small_encoder, teacher, trained, small_dataset
    ):
        before = _mean_ce_per_layer(
            small_encoder, teacher, init_branches(
                SMALL_ENCODER.num_layers, teacher.num_classes, SMALL_ENCODER.model_dim
            ), small_dataset,
        )
        after = _mean_ce_per_layer(small_encoder, teacher, trained, small_dataset)
        assert (after < before).all()

    def test_gradient_matches_finite_differences(self, small_encoder, teacher):
        # 2-frame toy batch, one branch layer at a time.
        rng = np.random.default_rng(0)
        data = FrameDataset(
            inputs=rng.standard_normal((1, 2, SMALL_ENCODER.input_dim)).astype(np.float32),
            labels=np.zeros((1, 2), dtype=np.int32),
            num_classes=teacher.num_classes,
        )
        hs = forward_all(small_encoder, data.inputs[0])
        from adaexit.teacher import pseudo_labels

        targets = pseudo_labels(teacher, hs[-1])
        weights = rng.standard_normal(
            (SMALL_ENCODER.num_layers, teacher.num_classes, SMALL_ENCODER.model_dim)
        ).astype(np.float32) * np.float32(0.1)
        biases = np.zeros((SMALL_ENCODER.num_layers, teacher.num_classes), dtype=np.float32)
        branches = BranchSet(weights=weights, biases=biases)

        def layer_loss(branch_set, k):
            probs = softmax(branch_logits(branch_set, hs[k - 1], k))
            picked = probs[np.arange(targets.shape[0]), targets]
            return float(-np.log(picked).mean())

        k = 2
        h_k = hs[k - 1].astype(np.float64)
        probs = softmax(branch_logits(branches, hs[k - 1], k))
        dlogits = probs.copy()
        dlogits[np.arange(targets.shape[0]), targets] -= 1.0
        dlogits /= targets.shape[0]
        analytic = dlogits.T @ h_k

        h = 1e-3
        for c in (0, 1):
            for j in (0, 3):
                bumped = weights.copy()
                bumped[k - 1, c, j] += h
                up = layer_loss(BranchSet(weights=bumped, biases=biases), k)
                bumped[k - 1, c, j] -= 2 * h
                down = layer_loss(BranchSet(weights=bumped, biases=biases), k)
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), 1e-8)
                assert abs(analytic[c, j] - fd) / denom < 1e-4

    def test_empty_batch_rejected(self, small_encoder, teacher, small_dataset):
        with pytest.raises(ValueError):
            train_branches(
                small_encoder, teacher, small_dataset, lr=0.05, batch_size=0, steps=5, seed=6
            )

    def test_frozen_contract(self, small_encoder, teacher, small_dataset):
        enc_before = parameter_digest(small_encoder)
        teacher_before = (teacher.weight.copy(), teacher.bias.copy())
        train_branches(
            small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=20, seed=6
        )
        assert parameter_digest(small_encoder) == enc_before
        assert np.array_equal(teacher.weight, teacher_before[0])
        assert np.array_equal(teacher.bias, teacher_before[1])

    def test_loss_rows_cover_all_layers(self, small_encoder, teacher, small_dataset):
        result = train_branches(
            small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=7, seed=6
        )
        assert len(result.loss_rows) == 7 * SMALL_ENCODER.num_layers
        steps, layers, _ = zip(*result.loss_rows)
        assert set(layers) == set(range(1, SMALL_ENCODER.num_layers + 1))

    def test_profile_from_cache_equals_forwarded_profile(
        self, small_encoder, teacher, small_dataset
    ):
        result = train_branches(
            small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=20, seed=6
        )
        # A fresh encoder keeps no cache or table: its profile is forwarded anew.
        fresh = init_encoder(SMALL_ENCODER)
        assert result.profile == entropy_profile(fresh, result.branches, small_dataset)

    def test_chunked_pseudo_labels_equal_one_call_over_the_cache(
        self, small_encoder, teacher, small_dataset, monkeypatch
    ):
        # The targets the trainer is given, labelled FORWARD_CHUNK sequences
        # at a time, are those of one call over the whole last layer, at a
        # size that is not a multiple of the chunk.
        given = []

        def capture(cache, labels, *args):
            given.append(labels)
            return train_linear_heads(cache, labels, *args)

        monkeypatch.setattr(branches_module, "train_linear_heads", capture)
        data = small_dataset.subset(range(2 * FORWARD_CHUNK + 3))
        train_branches(small_encoder, teacher, data, lr=0.05, batch_size=8, steps=1, seed=6)
        whole = pseudo_labels(teacher, hidden_state_cache(small_encoder, data.inputs)[-1])
        assert given[0].dtype == whole.dtype and np.array_equal(given[0], whole)


class TestBranchEntropy:
    def test_zero_branches_give_log_c_exactly(self, small_encoder, small_dataset):
        branches = init_branches(SMALL_ENCODER.num_layers, 32, SMALL_ENCODER.model_dim)
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        assert branch_entropy(branches, hs, 1) == math.log(32)

    def test_single_frame_equals_frame_entropy(self, small_encoder, trained, small_dataset):
        hs = forward_all(small_encoder, small_dataset.inputs[0][:1])
        k = 2
        probs = softmax(branch_logits(trained, hs[k - 1], k))
        assert branch_entropy(trained, hs, k) == pytest.approx(entropy64(probs[0]), abs=1e-12)

    def test_double_sum_oracle(self, small_encoder, trained, small_dataset):
        hs = forward_all(small_encoder, small_dataset.inputs[0][:3])
        k = 3
        logits = branch_logits(trained, hs[k - 1], k)
        total = 0.0
        for t in range(3):
            p = softmax(logits[t])
            for c in range(p.shape[0]):
                if p[c] > 0:
                    total -= p[c] * math.log(p[c])
        assert branch_entropy(trained, hs, k) == pytest.approx(total / 3, abs=1e-6)

    def test_bounds_over_random_inputs(self, small_encoder, trained, rng):
        limit = math.log(trained.num_classes)
        for _ in range(10):
            x = rng.standard_normal((6, SMALL_ENCODER.input_dim)).astype(np.float32)
            values = sample_entropies(trained, forward_all(small_encoder, x))
            assert (values >= 0).all() and (values <= limit + 1e-12).all()

    def test_requires_computed_layer(self, small_encoder, trained, small_dataset):
        partial = truncated_forward(small_encoder, small_dataset.inputs[0], 2)
        with pytest.raises(ValueError):
            branch_entropy(trained, partial, 3)

    def test_layer_zero_rejected(self, small_encoder, trained, small_dataset):
        # states[-1] would silently wrap to the deepest computed layer.
        full = forward_all(small_encoder, small_dataset.inputs[0])
        with pytest.raises(ValueError, match="layer 0 not computed"):
            branch_entropy(trained, full, 0)

    def test_prefix_entropy_matches_full(self, small_encoder, trained, small_dataset):
        x = small_dataset.inputs[4]
        full = forward_all(small_encoder, x)
        part = truncated_forward(small_encoder, x, 2)
        assert branch_entropy(trained, part, 2) == branch_entropy(trained, full, 2)

    def test_independent_of_other_samples(self, small_encoder, trained, small_dataset):
        x = small_dataset.inputs[5]
        alone = branch_entropy(trained, forward_all(small_encoder, x), 2)
        for other in (small_dataset.inputs[6], small_dataset.inputs[7]):
            forward_all(small_encoder, other)
        assert branch_entropy(trained, forward_all(small_encoder, x), 2) == alone


    # A block output that overflowed float32. The entropy kernel skips softmax's
    # finiteness scan, so the entropy it reaches must fail by layer instead. numpy's
    # own invalid-value warning (an error in this suite) is silenced to reach it.
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_hidden_state_named_by_layer(
        self, small_encoder, trained, small_dataset, bad
    ):
        hs = forward_all(small_encoder, small_dataset.inputs[0]).copy()
        hs[2, 4, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="^layer 3 branch entropy is not finite"
        ):
            branch_entropy(trained, hs, 3)
        assert math.isfinite(branch_entropy(trained, hs, 2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_hidden_state_in_a_batch_named_by_layer(
        self, small_encoder, trained, small_dataset, bad
    ):
        states = np.stack([forward_all(small_encoder, x) for x in small_dataset.inputs[:3]], axis=1)
        states[2, 1, 4, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="^layer 3 branch entropy is not finite"
        ):
            batch_entropies(trained, states)
        assert np.isfinite(batch_entropies(trained, states[:2])).all()


class TestEntropyProfile:
    def test_single_sample_profile(self, small_encoder, trained, small_dataset):
        single = small_dataset.subset([0])
        profile = entropy_profile(small_encoder, trained, single)
        hs = forward_all(small_encoder, small_dataset.inputs[0])
        expect = sample_entropies(trained, hs)
        assert np.allclose(profile.layer_means, expect, atol=1e-12)

    def test_untrained_profile_is_flat_log_c(self, small_encoder, small_dataset):
        # Exactness needs 1/C representable, hence a power-of-two class count.
        c = 32
        branches = init_branches(SMALL_ENCODER.num_layers, c, SMALL_ENCODER.model_dim)
        profile = entropy_profile(small_encoder, branches, small_dataset.subset(range(4)))
        assert profile.max_mean == math.log(c)
        assert profile.min_mean == math.log(c)

    def test_extremes_consistent(self, small_encoder, trained, small_dataset):
        profile = entropy_profile(small_encoder, trained, small_dataset.subset(range(6)))
        assert profile.max_mean == max(profile.layer_means)
        assert profile.min_mean == min(profile.layer_means)

    def test_empty_dataset_rejected(self, small_encoder, trained, small_dataset):
        with pytest.raises(ValueError):
            entropy_profile(small_encoder, trained, small_dataset.subset([]))

    def test_from_rows_is_the_column_running_mean(self, rng):
        rows = rng.random((7, 3))
        means = np.zeros(3)
        for i, row in enumerate(rows):
            means += (row - means) / (i + 1)
        profile = EntropyProfile.from_rows(rows)
        assert profile.layer_means == tuple(means)

    def test_no_layers_rejected_by_name(self):
        with pytest.raises(ValueError, match="at least one layer"):
            EntropyProfile.from_layer_means([])
