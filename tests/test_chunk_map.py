"""Whole-dataset passes on every usable CPU: the same bytes at any worker count.

Each pass splits its sequences into FORWARD_CHUNK chunks and runs them
through `encoder.map_chunks`, one strided share per usable CPU with the
first in the caller's thread. Chunks are batch-invariant, so every wired
pass gives the bytes of its one-CPU run (chunks in order, in the caller's
thread) at 1, 2 and 3 workers, including fewer sequences than one chunk
and a count that is not a multiple of it. A failing pass raises the error
of its lowest-index failing chunk, as the serial loop does, and no worker
calls a public entry point that a tracer wraps. Each run is on a fresh
encoder object (`dataclasses.replace`), which keeps nothing of an earlier
run (`Encoder.kept`), so every run computes its pass.

CI also runs this file under `taskset -c 0`, where one CPU is usable.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from adaexit import branches as branches_module
from adaexit import encoder as encoder_module
from adaexit import numeric
from adaexit import probe as probe_module
from adaexit.branches import entropy_table, train_branches
from adaexit.encoder import FORWARD_CHUNK, hidden_state_cache
from adaexit.numeric import on_usable_cpus
from adaexit.policy import ExitPolicy
from adaexit.probe import build_layer_table, init_downstream_head, train_downstream
from adaexit.teacher import train_teacher

from conftest import SMALL_ENCODER

WORKERS = (1, 2, 3)
# Fewer sequences than one chunk, two chunks and a part, and the whole small dataset.
SIZES = (5, 2 * FORWARD_CHUNK + 3, 40)


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(numeric, "_usable_cpus", lambda: workers)


@pytest.fixture(scope="module")
def stack(small_encoder, small_dataset):
    teacher = train_teacher(small_encoder, small_dataset, lr=0.3, steps=40, seed=5).head
    trained = train_branches(
        small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=60, seed=6
    )
    return teacher, trained.branches


@pytest.fixture(scope="module")
def head(small_dataset):
    return init_downstream_head(
        SMALL_ENCODER.num_layers, small_dataset.num_classes, SMALL_ENCODER.model_dim, 7
    )


POLICY = ExitPolicy(threshold=0.5, ratio=0.7, num_layers=SMALL_ENCODER.num_layers)


def _downstream(task, renormalize):
    def run(enc, data, teacher, trained, head):
        cache = hidden_state_cache(enc, data.inputs)  # normalized in place by the head
        result = train_downstream(
            enc, trained, POLICY, head, data, lr=0.5, steps=6, seed=8, batch_size=4,
            task=task, renormalize=renormalize,
        )
        return [cache, result.entropies, result.exits, result.forced, result.losses,
                result.head.layer_weights, result.head.probe_weight, result.head.probe_bias]

    return run


def _table(task, renormalize):
    def run(enc, data, teacher, trained, head):
        built = build_layer_table(enc, trained, data, head, task, renormalize)
        return [built.entropies, built.correct, built.scored]

    return run


def _branch_training(enc, data, teacher, trained, head):
    result = train_branches(enc, teacher, data, lr=0.05, batch_size=4, steps=5, seed=6)
    entropies = entropy_table(enc, result.branches, data.inputs)  # kept by the training
    return [entropies, result.profile.layer_means, result.branches.weights]


# Each wired pass, as a function of (encoder, dataset, teacher, branches, probe head)
# returning the arrays it computes.
_PASSES = {
    "hidden_state_cache": lambda enc, data, *_: [hidden_state_cache(enc, data.inputs)],
    "entropy_table": lambda enc, data, teacher, trained, head: [
        entropy_table(enc, trained, data.inputs)
    ],
    "train_branches": _branch_training,
    "train_downstream/frame": _downstream("frame", True),
    "train_downstream/sequence/global": _downstream("sequence", False),
    "build_layer_table/frame": _table("frame", True),
    "build_layer_table/sequence/global": _table("sequence", False),
}


def _on_a_fresh_encoder(run):
    return lambda enc, *args: run(dataclasses.replace(enc), *args)


# The same, each on a fresh encoder object, which keeps nothing of an earlier run.
PASSES = {name: _on_a_fresh_encoder(run) for name, run in _PASSES.items()}


def _bytes(arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", PASSES)
def test_pass_bytes_do_not_depend_on_the_worker_count(
    small_encoder, small_dataset, stack, head, monkeypatch, name, size
):
    args = (small_encoder, small_dataset.subset(range(size)), *stack, head)
    _use_workers(monkeypatch, 1)
    serial = _bytes(PASSES[name](*args))
    for workers in WORKERS[1:]:
        _use_workers(monkeypatch, workers)
        assert _bytes(PASSES[name](*args)) == serial, workers


def test_more_workers_than_cores_under_fast_thread_switching(
    small_encoder, small_dataset, stack, head, monkeypatch
):
    args = (small_encoder, small_dataset, *stack, head)
    names = ("hidden_state_cache", "entropy_table")
    _use_workers(monkeypatch, 1)
    serial = {name: _bytes(PASSES[name](*args)) for name in names}
    _use_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name, expect in serial.items():
            assert _bytes(PASSES[name](*args)) == expect, name
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", WORKERS)
def test_workers_call_no_traced_entry_point(
    small_encoder, small_dataset, stack, head, monkeypatch, workers
):
    # perfbench's tracer wraps these, and keeps one span stack for the process.
    main = threading.main_thread()

    def main_thread_only(fn):
        def guarded(*args, **kwargs):
            if threading.current_thread() is not main:
                raise AssertionError(f"{fn.__name__} called from a worker thread")
            return fn(*args, **kwargs)

        return guarded

    for module in (numeric, encoder_module, branches_module, probe_module):
        for name in ("matmul64", "normalize_prefix", "weighted_features", "forward_all",
                     "entropy_from_hidden"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, main_thread_only(getattr(module, name)))
    _use_workers(monkeypatch, workers)
    for run in PASSES.values():
        run(small_encoder, small_dataset, *stack, head)


class TestDeterministicErrors:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_non_finite_input_in_the_last_chunk(
        self, small_encoder, small_dataset, stack, head, monkeypatch, workers
    ):
        _, trained = stack
        inputs = small_dataset.inputs.copy()
        inputs[-1, 3, 2] = np.nan
        bad = dataclasses.replace(small_dataset, inputs=inputs)
        _use_workers(monkeypatch, workers)
        for call in (
            lambda: hidden_state_cache(small_encoder, inputs),
            lambda: entropy_table(small_encoder, trained, inputs),
            lambda: build_layer_table(small_encoder, trained, bad, head),
        ):
            with pytest.raises(ValueError, match="^input contains non-finite entries$"):
                call()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_first_failing_chunk_names_the_error(
        self, small_encoder, small_dataset, stack, head, monkeypatch, workers
    ):
        # A NaN hidden state at layer 3 in the middle chunk, and one at layer 1
        # in the last, written into the cache a fresh encoder keeps: the serial
        # pass meets the middle chunk first.
        _, trained = stack
        enc = dataclasses.replace(small_encoder)
        cache = hidden_state_cache(enc, small_dataset.inputs)
        cache.flags.writeable = True
        cache[2, FORWARD_CHUNK + 1, 4, 0] = np.nan
        cache[0, 2 * FORWARD_CHUNK + 2, 0, 5] = np.nan
        _use_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match="^layer 3 branch entropy is not finite"):
            train_downstream(
                enc, trained, POLICY, head, small_dataset, lr=0.5, steps=1, seed=8
            )


class TestOnUsableCpus:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_results_in_item_order(self, monkeypatch, workers, count):
        _use_workers(monkeypatch, workers)
        assert on_usable_cpus(lambda x: x * x, range(count)) == [x * x for x in range(count)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_caller_takes_the_first_share_and_one_cpu_starts_no_thread(
        self, monkeypatch, workers
    ):
        _use_workers(monkeypatch, workers)
        threads = on_usable_cpus(lambda _: threading.get_ident(), range(7))
        assert set(threads[::workers]) == {threading.get_ident()}
        for share in range(1, workers):
            assert len(set(threads[share::workers])) == 1, share
            assert threads[share] != threading.get_ident(), share
        assert len(set(threads)) <= workers

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_lowest_failing_item_raises(self, monkeypatch, workers):
        # Item 3 fails last in time (it waits for item 4's failure), yet it
        # is what the serial loop raises.
        late = threading.Event()

        def work(i):
            if i == 3:
                if workers > 1:
                    late.wait(timeout=1.0)
                raise KeyError("item 3")
            if i == 4:
                late.set()
                raise ValueError("item 4")
            return i

        _use_workers(monkeypatch, workers)
        with pytest.raises(KeyError, match="item 3"):
            on_usable_cpus(work, range(9))
