from __future__ import annotations

import numpy as np
import pytest

from adaexit.data import FrameDataset
from adaexit.encoder import forward_all, hidden_state_cache, parameter_digest
from adaexit.teacher import (
    init_teacher_head,
    pseudo_labels,
    teacher_logits,
    train_teacher,
)

from conftest import SMALL_ENCODER


class TestTrainTeacher:
    def test_zero_steps_returns_initialization(self, small_encoder, small_dataset):
        result = train_teacher(small_encoder, small_dataset, lr=0.3, steps=0, seed=3)
        init = init_teacher_head(
            small_dataset.num_classes, SMALL_ENCODER.model_dim, seed=3
        )
        assert np.array_equal(result.head.weight, init.weight)
        assert np.array_equal(result.head.bias, init.bias)

    def test_fixed_seed_reproducible(self, small_encoder, small_dataset):
        a = train_teacher(small_encoder, small_dataset, lr=0.3, steps=25, seed=3)
        b = train_teacher(small_encoder, small_dataset, lr=0.3, steps=25, seed=3)
        assert np.array_equal(a.head.weight, b.head.weight)
        assert np.array_equal(a.head.bias, b.head.bias)

    def test_loss_decreases(self, small_encoder, small_dataset):
        result = train_teacher(small_encoder, small_dataset, lr=0.3, steps=120, seed=3)
        tenth = len(result.losses) // 10
        assert np.mean(result.losses[-tenth:]) < np.mean(result.losses[:tenth])

    def test_empty_dataset_rejected(self, small_encoder, small_dataset):
        empty = FrameDataset(
            inputs=small_dataset.inputs[:0],
            labels=small_dataset.labels[:0],
            num_classes=small_dataset.num_classes,
        )
        with pytest.raises(ValueError):
            train_teacher(small_encoder, empty, lr=0.3, steps=5, seed=3)

    def test_separable_two_class_case(self, small_encoder, rng):
        # Two far-apart prototypes, no jitter: verify separability of the
        # deepest-layer features with an independent least-squares probe,
        # then require the trained head to reach the same regime.
        n, frames, dim = 30, 8, SMALL_ENCODER.input_dim
        labels = rng.integers(0, 2, size=(n, frames)).astype(np.int32)
        protos = np.zeros((2, dim), dtype=np.float32)
        protos[0, 0] = 10.0
        protos[1, 0] = -10.0
        data = FrameDataset(inputs=protos[labels], labels=labels, num_classes=2)

        feats = hidden_state_cache(small_encoder, data.inputs)[-1].reshape(
            -1, SMALL_ENCODER.model_dim
        )
        flat = data.labels.reshape(-1)
        targets = np.where(flat == 0, 1.0, -1.0)
        coef, *_ = np.linalg.lstsq(
            np.hstack([feats.astype(np.float64), np.ones((feats.shape[0], 1))]),
            targets,
            rcond=None,
        )
        oracle_pred = (
            np.hstack([feats.astype(np.float64), np.ones((feats.shape[0], 1))]) @ coef
        )
        oracle_acc = ((oracle_pred > 0) == (flat == 0)).mean()
        assert oracle_acc >= 0.99, "construction is not separable; test is invalid"

        result = train_teacher(small_encoder, data, lr=0.5, steps=200, seed=3)
        correct = 0
        for i in range(n):
            hs = forward_all(small_encoder, data.inputs[i])
            pred = pseudo_labels(result.head, hs[-1])
            correct += int((pred == data.labels[i]).sum())
        assert correct / (n * frames) >= 0.99

    def test_encoder_frozen_by_training(self, small_encoder, small_dataset):
        before = parameter_digest(small_encoder)
        train_teacher(small_encoder, small_dataset, lr=0.3, steps=20, seed=3)
        assert parameter_digest(small_encoder) == before


class TestPseudoLabels:
    def test_dominant_logit_wins(self, small_encoder, small_dataset):
        head = init_teacher_head(small_dataset.num_classes, SMALL_ENCODER.model_dim, seed=3)
        boosted = head.weight.copy()
        boosted[:] = 0
        bias = head.bias.copy()
        bias[:] = 0
        bias[4] = 50.0
        from adaexit.teacher import TeacherHead

        hs = forward_all(small_encoder, small_dataset.inputs[0])
        labels = pseudo_labels(TeacherHead(weight=boosted, bias=bias), hs[-1])
        assert (labels == 4).all()

    def test_tie_breaks_to_lowest_class(self):
        from adaexit.teacher import TeacherHead

        logits = teacher_logits(
            TeacherHead(
                weight=np.zeros((3, 4), dtype=np.float32),
                bias=np.zeros(3, dtype=np.float32),
            ),
            np.ones((5, 4), dtype=np.float32),
        )
        assert (logits.argmax(axis=1) == 0).all()

    def test_matches_naive_argmax_oracle(self, small_encoder, small_dataset, rng):
        head = init_teacher_head(small_dataset.num_classes, SMALL_ENCODER.model_dim, seed=11)
        hs = forward_all(small_encoder, small_dataset.inputs[1])
        final = hs[-1]
        labels = pseudo_labels(head, final)
        for t in range(final.shape[0]):
            scores = [
                float(head.weight[c].astype(np.float64) @ final[t].astype(np.float64))
                + float(head.bias[c])
                for c in range(head.num_classes)
            ]
            best = max(range(len(scores)), key=lambda c: (scores[c], -c))
            assert labels[t] == best

    def test_depends_only_on_final_layer(self, small_encoder, small_dataset):
        # In a stacked call, a sample's labels ignore every other sample.
        head = init_teacher_head(small_dataset.num_classes, SMALL_ENCODER.model_dim, seed=3)
        finals = hidden_state_cache(small_encoder, small_dataset.inputs[:3])[-1]
        baseline = pseudo_labels(head, finals[1])
        perturbed = finals.copy()
        perturbed[[0, 2]] += 123.0
        assert np.array_equal(pseudo_labels(head, perturbed)[1], baseline)

    def test_cache_wide_equals_per_sample_bitwise(self, small_encoder, small_dataset):
        head = init_teacher_head(small_dataset.num_classes, SMALL_ENCODER.model_dim, seed=3)
        cache = hidden_state_cache(small_encoder, small_dataset.inputs)
        labels = pseudo_labels(head, cache[-1])
        logits = teacher_logits(head, cache[-1])
        assert labels.shape == small_dataset.labels.shape and labels.dtype == np.int32
        for i in range(small_dataset.num_sequences):
            final = forward_all(small_encoder, small_dataset.inputs[i])[-1]
            assert np.array_equal(teacher_logits(head, final), logits[i])
            assert np.array_equal(pseudo_labels(head, final), labels[i])

    def test_shift_invariance(self, small_encoder, small_dataset):
        from adaexit.teacher import TeacherHead

        head = init_teacher_head(small_dataset.num_classes, SMALL_ENCODER.model_dim, seed=3)
        hs = forward_all(small_encoder, small_dataset.inputs[3])
        shifted = TeacherHead(weight=head.weight, bias=head.bias + np.float32(7.5))
        assert np.array_equal(pseudo_labels(head, hs[-1]), pseudo_labels(shifted, hs[-1]))
