"""The one hidden-state cache of a training split, kept on the encoder for the three trainers.

The teacher builds `encoder.hidden_state_cache` and the encoder keeps it;
the branches and the downstream head read it there. A trainer given an
encoder that keeps its dataset's cache trains what it trains on a fresh
encoder, with no forward, and the downstream head takes the cache off the
encoder and normalizes it in place.
"""

from __future__ import annotations

import numpy as np
import pytest

from adaexit import encoder
from adaexit.branches import entropy_profile, train_branches
from adaexit.encoder import forward_all, hidden_state_cache, init_encoder
from adaexit.policy import calibrate
from adaexit.probe import TASKS, init_downstream_head, normalize_prefix, train_downstream
from adaexit.teacher import train_teacher

from conftest import SMALL_ENCODER, assert_served_exits


@pytest.fixture(scope="module")
def stack(small_encoder, small_dataset):
    teacher = train_teacher(small_encoder, small_dataset, lr=0.3, steps=60, seed=5).head
    trained = train_branches(
        small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=150, seed=6
    ).branches
    return teacher, trained


def _forbid_forwards(monkeypatch):
    def forwarded(*args, **kwargs):
        raise AssertionError("forwarded a sequence the encoder keeps")

    monkeypatch.setattr(encoder, "_embed", forwarded)


def _trained_arrays(result):
    """Every trained array and logged number of a teacher or branch result."""
    if hasattr(result, "branches"):
        trained = result.branches
        return [trained.weights, trained.biases, result.loss_rows, result.profile.layer_means]
    return [result.head.weight, result.head.bias, result.losses]


@pytest.mark.parametrize("trainer", ["teacher", "branches"])
def test_teacher_and_branches_train_the_same_on_a_kept_cache(
    small_dataset, stack, monkeypatch, trainer
):
    teacher, _ = stack

    def train(enc):
        if trainer == "teacher":
            return train_teacher(enc, small_dataset, lr=0.3, steps=5, seed=3)
        return train_branches(enc, teacher, small_dataset, lr=0.05, batch_size=8, steps=5, seed=6)

    fresh = _trained_arrays(train(init_encoder(SMALL_ENCODER)))
    keeping = init_encoder(SMALL_ENCODER)
    hidden_state_cache(keeping, small_dataset.inputs)
    _forbid_forwards(monkeypatch)
    for a, b in zip(fresh, _trained_arrays(train(keeping)), strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("renormalize", [True, False])
def test_downstream_trains_the_same_on_a_kept_cache(
    small_encoder, small_dataset, stack, monkeypatch, task, renormalize
):
    _, trained = stack
    policy = calibrate(entropy_profile(small_encoder, trained, small_dataset), 1.0)
    head = init_downstream_head(
        SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
    )
    kwargs = dict(lr=0.5, steps=20, seed=8, batch_size=8, task=task, renormalize=renormalize)
    args = (trained, policy, head, small_dataset)
    fresh = train_downstream(init_encoder(SMALL_ENCODER), *args, **kwargs)
    keeping = init_encoder(SMALL_ENCODER)
    held = hidden_state_cache(keeping, small_dataset.inputs)
    with monkeypatch.context() as patched:
        _forbid_forwards(patched)
        given = train_downstream(keeping, *args, **kwargs)
    assert keeping.kept.cache(small_dataset.inputs) is None
    assert len(set(fresh.exits.tolist())) > 1, "exits at one depth test little"
    for name in ("layer_weights", "probe_weight", "probe_bias"):
        assert np.array_equal(getattr(given.head, name), getattr(fresh.head, name)), name
    assert given.losses == fresh.losses
    for name in ("entropies", "exits", "forced"):
        assert np.array_equal(getattr(given, name), getattr(fresh, name)), name
    assert_served_exits(
        small_encoder, trained, policy, small_dataset.inputs,
        given.entropies, given.exits, given.forced,
    )
    assert given.span_stats == fresh.span_stats
    # The cache handed out before was normalized in place: each sample's
    # prefix up to its exit is the reference prefix of a fresh forward.
    for i, k in enumerate(given.exits.tolist()):
        reference = normalize_prefix(forward_all(small_encoder, small_dataset.inputs[i]), k)
        assert np.array_equal(held[:k, i], reference), i
