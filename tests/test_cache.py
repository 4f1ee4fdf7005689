"""The one hidden-state cache of a training split, handed to each of the three trainers.

A pipeline run builds `encoder.hidden_state_cache` once and gives it to the
teacher, the branches and the downstream head. A given cache must train
what a trainer's own cache trains, and one of the wrong shape is refused
by name before anything runs.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from adaexit import branches as branches_module
from adaexit import encoder
from adaexit import probe as probe_module
from adaexit import teacher as teacher_module
from adaexit.branches import entropy_profile, train_branches
from adaexit.encoder import forward_all, hidden_state_cache
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


@pytest.fixture(scope="module")
def cache(small_encoder, small_dataset):
    cache = hidden_state_cache(small_encoder, small_dataset.inputs)
    cache.flags.writeable = False  # a test that needs to write takes a copy
    return cache


def _trainers(enc, data, stack):
    """Each trainer as a function of its cache keyword."""
    teacher, trained = stack
    policy = calibrate(entropy_profile(enc, trained, data), 1.0)
    head = init_downstream_head(
        SMALL_ENCODER.num_layers, data.num_classes, SMALL_ENCODER.model_dim, 7
    )
    return {
        "teacher": lambda **kw: train_teacher(enc, data, lr=0.3, steps=5, seed=3, **kw),
        "branches": lambda **kw: train_branches(
            enc, teacher, data, lr=0.05, batch_size=8, steps=5, seed=6, **kw
        ),
        "downstream": lambda **kw: train_downstream(
            enc, trained, policy, head, data, lr=0.5, steps=5, seed=8, batch_size=8, **kw
        ),
    }


def _bad_caches(cache):
    layers, n, frames, dim = cache.shape
    return {
        "final-layer-only": cache[-1:],
        "layer-short": cache[:-1],
        "other-dataset": cache[:, :-1],
        "other-frames": cache[:, :, :-1],
        "other-width": np.zeros((layers, n, frames, dim + 1), dtype=np.float32),
        "float64": cache.astype(np.float64),
    }


@pytest.mark.parametrize("trainer", ["teacher", "branches", "downstream"])
@pytest.mark.parametrize(
    "bad",
    ["final-layer-only", "layer-short", "other-dataset", "other-frames", "other-width", "float64"],
)
def test_cache_of_another_shape_refused_before_any_step(
    small_encoder, small_dataset, stack, cache, monkeypatch, trainer, bad
):
    train = _trainers(small_encoder, small_dataset, stack)[trainer]

    def ran(*args, **kwargs):
        raise AssertionError("ran past the cache check")

    for module, name in (
        (teacher_module, "train_linear_heads"),
        (branches_module, "train_linear_heads"),
        (branches_module, "pseudo_labels"),
        (probe_module, "batch_entropies"),
        (encoder, "_embed"),
    ):
        monkeypatch.setattr(module, name, ran)
    given = _bad_caches(cache)[bad]
    expected = re.escape(
        "cache must be float32 (num_layers, N, frames, model_dim) = "
        f"{cache.shape}, got {given.dtype} {given.shape}"
    )
    with pytest.raises(ValueError, match=f"^{expected}$"):
        train(cache=given)


def _trained_arrays(result):
    """Every trained array and logged number of a teacher or branch result."""
    if hasattr(result, "branches"):
        trained = result.branches
        return [trained.weights, trained.biases, result.loss_rows, result.profile.layer_means]
    return [result.head.weight, result.head.bias, result.losses]


@pytest.mark.parametrize("trainer", ["teacher", "branches"])
def test_teacher_and_branches_train_the_same_on_a_given_cache(
    small_encoder, small_dataset, stack, cache, trainer
):
    # The fixture's cache is read-only: neither trainer writes to it.
    train = _trainers(small_encoder, small_dataset, stack)[trainer]
    fresh, given = _trained_arrays(train()), _trained_arrays(train(cache=cache))
    for a, b in zip(fresh, given, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("renormalize", [True, False])
def test_downstream_trains_the_same_on_a_given_cache(
    small_encoder, small_dataset, stack, cache, task, renormalize
):
    teacher, trained = stack
    policy = calibrate(entropy_profile(small_encoder, trained, small_dataset), 1.0)
    head = init_downstream_head(
        SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
    )
    kwargs = dict(lr=0.5, steps=20, seed=8, batch_size=8, task=task, renormalize=renormalize)
    args = (small_encoder, trained, policy, head, small_dataset)
    fresh = train_downstream(*args, **kwargs)
    given_cache = cache.copy()
    given = train_downstream(*args, **kwargs, cache=given_cache)
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
    # The given cache was normalized in place: each sample's prefix up to its
    # exit is the reference prefix of a fresh forward.
    for i, k in enumerate(given.exits.tolist()):
        reference = normalize_prefix(forward_all(small_encoder, small_dataset.inputs[i]), k)
        assert np.array_equal(given_cache[:k, i], reference), i
