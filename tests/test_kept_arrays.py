"""What a frozen encoder keeps of the datasets it computed on (`Encoder.kept`).

One encoder object keeps the hidden-state cache of the last dataset it
forwarded whole and the entropy table of each (inputs, branches) pair, each
under SHA-256 digests of the bytes it came from. So perfbench's serving
set-up order, `train_teacher` -> `train_branches` -> `entropy_profile` ->
`train_downstream` on one encoder and one dataset, forwards each sequence
once. A digest mismatch recomputes, with the bits of a fresh encoder, and
nothing is shared between encoder objects.

CI also runs this file under `taskset -c 0`, where one CPU is usable.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from adaexit import encoder as encoder_module
from adaexit import numeric
from adaexit.branches import BranchSet, entropy_profile, entropy_table, train_branches
from adaexit.encoder import hidden_state_cache, init_encoder
from adaexit.policy import calibrate
from adaexit.probe import TASKS, build_layer_table, init_downstream_head, train_downstream
from adaexit.serialize import Checkpoint, save_checkpoint
from adaexit.teacher import train_teacher

from conftest import SMALL_ENCODER


@pytest.fixture()
def blocks_run(monkeypatch):
    """The number of sequences `encoder.run_blocks` is given from now on, in a one-item list."""
    seen = [0]
    original = encoder_module.run_blocks

    def counting(enc, stream, out):
        seen[0] += stream.shape[0]
        return original(enc, stream, out)

    monkeypatch.setattr(encoder_module, "run_blocks", counting)
    return seen


def _teacher(enc, data):
    return train_teacher(enc, data, lr=0.3, steps=30, seed=5)


def _branches(enc, teacher, data):
    return train_branches(enc, teacher.head, data, lr=0.05, batch_size=8, steps=40, seed=6)


def _setup(encoder_for, data, workdir, blocks_run=None, task="frame", renormalize=True):
    """perfbench's serving set-up order; `encoder_for()` gives the encoder of each call.

    Returns the checkpoint's bytes, every logged row, and the forwards of the
    profile call.
    """
    teacher = _teacher(encoder_for(), data)
    trained = _branches(encoder_for(), teacher, data)
    before = None if blocks_run is None else blocks_run[0]
    profile = entropy_profile(encoder_for(), trained.branches, data)
    profiled = None if blocks_run is None else blocks_run[0] - before
    policy = calibrate(profile, 1.0)
    head = init_downstream_head(
        SMALL_ENCODER.num_layers, data.num_classes, SMALL_ENCODER.model_dim, 7
    )
    enc = encoder_for()
    down = train_downstream(
        enc, trained.branches, policy, head, data, lr=0.5, steps=20, seed=8, batch_size=8,
        task=task, renormalize=renormalize,
    )
    path = workdir / "checkpoint.bin"
    save_checkpoint(
        Checkpoint(encoder=enc, teacher=teacher.head, branches=trained.branches,
                   downstream=down.head),
        path,
    )
    rows = [
        teacher.losses, trained.loss_rows, profile.layer_means, policy, down.losses,
        down.entropies.tolist(), down.exits.tolist(), down.forced.tolist(),
    ]
    return path.read_bytes(), rows, profiled


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_setup_order_forwards_each_sequence_once(
    small_dataset, tmp_path, blocks_run, monkeypatch, workers
):
    monkeypatch.setattr(numeric, "_usable_cpus", lambda: workers)
    enc = init_encoder(SMALL_ENCODER)
    _, _, profiled = _setup(lambda: enc, small_dataset, tmp_path, blocks_run)
    assert blocks_run[0] == small_dataset.num_sequences
    assert profiled == 0
    assert enc.kept.cache(small_dataset.inputs) is None  # the downstream head took it


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("renormalize", [True, False])
def test_setup_on_one_encoder_writes_the_bytes_of_fresh_encoders(
    small_dataset, tmp_path, task, renormalize
):
    one = init_encoder(SMALL_ENCODER)
    runs = {}
    for name, encoder_for in (("one", lambda: one), ("fresh", lambda: init_encoder(SMALL_ENCODER))):
        (tmp_path / name).mkdir()
        runs[name] = _setup(
            encoder_for, small_dataset, tmp_path / name, task=task, renormalize=renormalize
        )
    assert runs["one"][:2] == runs["fresh"][:2]


def test_a_second_encoder_object_forwards_again(small_dataset, blocks_run):
    # Nothing is kept process-wide: an encoder drawn again, with equal
    # parameters, keeps nothing of the first one's work.
    first, second = init_encoder(SMALL_ENCODER), init_encoder(SMALL_ENCODER)
    hidden_state_cache(first, small_dataset.inputs)
    hidden_state_cache(second, small_dataset.inputs)
    assert blocks_run[0] == 2 * small_dataset.num_sequences


def test_kept_arrays_are_read_only_and_served_again(small_dataset, blocks_run):
    enc = init_encoder(SMALL_ENCODER)
    inputs = small_dataset.inputs
    cache = hidden_state_cache(enc, inputs)
    assert hidden_state_cache(enc, inputs.copy()) is cache  # equal bytes, another array
    assert blocks_run[0] == small_dataset.num_sequences
    branches = BranchSet(
        np.ones((SMALL_ENCODER.num_layers, 5, SMALL_ENCODER.model_dim), dtype=np.float32),
        np.zeros((SMALL_ENCODER.num_layers, 5), dtype=np.float32),
    )
    table = entropy_table(enc, branches, inputs)
    assert entropy_table(enc, branches, inputs) is table
    assert blocks_run[0] == small_dataset.num_sequences  # the table was read off the cache
    for kept in (cache, table):
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0
    taken = enc.kept.take_cache(cache)
    assert taken is cache and taken.flags.writeable
    assert enc.kept.cache(inputs) is None
    with pytest.raises(ValueError, match="does not keep this hidden-state cache"):
        enc.kept.take_cache(cache)


def test_each_entry_point_hashes_its_inputs_once(small_dataset, monkeypatch):
    # A cold entropy table hashes the inputs once and the branches once, and
    # so does a kept one; a cold hidden-state cache hashes the inputs once.
    hashed = []
    original = encoder_module._digest

    def counting(*arrays):
        hashed.append(arrays)
        return original(*arrays)

    monkeypatch.setattr(encoder_module, "_digest", counting)
    enc = init_encoder(SMALL_ENCODER)
    inputs = small_dataset.inputs
    branches = BranchSet(
        np.ones((SMALL_ENCODER.num_layers, 5, SMALL_ENCODER.model_dim), dtype=np.float32),
        np.zeros((SMALL_ENCODER.num_layers, 5), dtype=np.float32),
    )
    for _ in range(2):
        hashed.clear()
        entropy_table(enc, branches, inputs)
        assert len(hashed) == 2
        assert len(hashed[0]) == 1 and hashed[0][0] is inputs
        assert hashed[1][0] is branches.weights and hashed[1][1] is branches.biases
    hashed.clear()
    hidden_state_cache(enc, inputs)
    assert len(hashed) == 1 and hashed[0][0] is inputs


def test_build_layer_table_keeps_its_entropies(small_dataset, blocks_run):
    enc = init_encoder(SMALL_ENCODER)
    trained = _branches(enc, _teacher(enc, small_dataset), small_dataset).branches
    heldout = dataclasses.replace(small_dataset, inputs=small_dataset.inputs[::-1].copy())
    head = init_downstream_head(
        SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
    )
    table = build_layer_table(enc, trained, heldout, head)
    before = blocks_run[0]
    assert entropy_table(enc, trained, heldout.inputs) is table.entropies
    assert blocks_run[0] == before


class TestMisses:
    """A digest mismatch recomputes, with the bits of a fresh encoder."""

    @pytest.fixture()
    def trained(self, small_dataset):
        enc = init_encoder(SMALL_ENCODER)
        teacher = _teacher(enc, small_dataset)
        return enc, teacher, _branches(enc, teacher, small_dataset)

    @pytest.mark.parametrize("then", ["train_branches", "entropy_profile", "train_downstream"])
    def test_inputs_edited_in_place(self, small_dataset, trained, blocks_run, then):
        enc, teacher, result = trained
        data = dataclasses.replace(small_dataset, inputs=small_dataset.inputs.copy())
        hidden_state_cache(enc, data.inputs)
        entropy_table(enc, result.branches, data.inputs)
        data.inputs[7, 3] += np.float32(0.5)
        head = init_downstream_head(
            SMALL_ENCODER.num_layers, data.num_classes, SMALL_ENCODER.model_dim, 7
        )
        policy = calibrate(result.profile, 1.0)

        def call(on):
            if then == "train_branches":
                again = _branches(on, teacher, data)
                return [again.loss_rows, again.profile, again.branches.weights.tolist()]
            if then == "entropy_profile":
                return [entropy_profile(on, result.branches, data)]
            down = train_downstream(on, result.branches, policy, head, data, lr=0.5, steps=5,
                                    seed=8)
            return [down.losses, down.entropies.tolist(), down.head.probe_weight.tolist()]

        before = blocks_run[0]
        edited = call(enc)
        assert blocks_run[0] - before == data.num_sequences
        assert edited == call(init_encoder(SMALL_ENCODER))

    def test_other_branches(self, small_dataset, trained):
        enc, _, result = trained
        kept = entropy_table(enc, result.branches, small_dataset.inputs)
        other = BranchSet(result.branches.weights * np.float32(2), result.branches.biases)
        table = entropy_table(enc, other, small_dataset.inputs)
        assert not np.array_equal(table, kept)
        fresh = entropy_table(init_encoder(SMALL_ENCODER), other, small_dataset.inputs)
        assert np.array_equal(table, fresh)
        assert entropy_table(enc, result.branches, small_dataset.inputs) is kept  # both kept

    @pytest.mark.parametrize("change", ["none", "num_heads"])
    def test_replaced_encoder(self, small_dataset, trained, blocks_run, change):
        enc, _, result = trained
        config = enc.config
        if change == "num_heads":
            config = dataclasses.replace(config, num_heads=1)
        replaced = dataclasses.replace(enc, config=config)
        before = blocks_run[0]
        cache = hidden_state_cache(replaced, small_dataset.inputs)
        table = entropy_table(replaced, result.branches, small_dataset.inputs)
        assert blocks_run[0] - before == small_dataset.num_sequences
        fresh = init_encoder(config)
        assert np.array_equal(cache, hidden_state_cache(fresh, small_dataset.inputs))
        assert np.array_equal(table, entropy_table(fresh, result.branches, small_dataset.inputs))
        same = np.array_equal(cache, hidden_state_cache(enc, small_dataset.inputs))
        assert same == (change == "none")


def test_downstream_takes_the_cache_and_training_again_gives_the_same_bits(small_dataset):
    enc = init_encoder(SMALL_ENCODER)
    teacher = _teacher(enc, small_dataset)
    first = _branches(enc, teacher, small_dataset)
    policy = calibrate(first.profile, 1.0)
    head = init_downstream_head(
        SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
    )
    train_downstream(enc, first.branches, policy, head, small_dataset, lr=0.5, steps=5, seed=8)
    assert enc.kept.cache(small_dataset.inputs) is None
    again = _branches(enc, teacher, small_dataset)
    assert again.loss_rows == first.loss_rows
    assert again.profile == first.profile
    assert np.array_equal(again.branches.weights, first.branches.weights)
    assert np.array_equal(again.branches.biases, first.branches.biases)


def test_one_cache_per_encoder(small_dataset, monkeypatch):
    # The first cache is let go before the second dataset's forward, so the
    # encoder never holds two.
    enc = init_encoder(SMALL_ENCODER)
    first = weakref.ref(hidden_state_cache(enc, small_dataset.inputs))
    alive_in_forward = []
    original = encoder_module.run_blocks

    def checking(*args):
        gc.collect()
        alive_in_forward.append(first() is not None)
        return original(*args)

    monkeypatch.setattr(encoder_module, "run_blocks", checking)
    second = hidden_state_cache(enc, small_dataset.inputs[:-1])
    assert alive_in_forward and not any(alive_in_forward)
    assert first() is None
    assert enc.kept.cache(small_dataset.inputs[:-1]) is second
    assert enc.kept.cache(small_dataset.inputs) is None
