from __future__ import annotations

import numpy as np
import pytest

from adaexit.branches import branch_entropy
from adaexit.data import SynthDatasetSpec, synth_dataset
from adaexit.encoder import EncoderConfig, IncrementalForward, init_encoder
from adaexit.numeric import cross_entropy64
from adaexit.policy import run_exit
from adaexit.probe import _ProbeStep

SMALL_ENCODER = EncoderConfig(
    num_layers=4,
    model_dim=16,
    num_heads=2,
    ffn_dim=32,
    max_frames=16,
    input_dim=6,
    seed=9,
)

SMALL_DATA = SynthDatasetSpec(
    num_sequences=40,
    frames=12,
    input_dim=6,
    num_classes=5,
    context_window=3,
    markov_self_prob=0.8,
    jitter_std=0.4,
    seed=21,
)


def truncated_forward(enc, frames, k):
    """The (k, frames, model_dim) layers of a pass that stops after layer k."""
    inc = IncrementalForward(enc, frames)
    inc.hidden(k)
    return inc.states()


def assert_served_exits(enc, branches, policy, inputs, entropies, exits, forced):
    """Each row's decided (exit, forced) is `run_exit`'s on that input, and so is what it saw.

    Every served trace evaluated exactly the allowed layers up to its exit,
    computed no layer past it, and saw the table row's entropy at each of
    them. Returns the served traces.
    """
    served = []
    for i, x in enumerate(inputs):
        hs, trace = run_exit(enc, branches, policy, x)
        assert len(hs) == trace.exit_layer, i
        served.append(trace)
    assert exits.dtype == np.int64 and forced.dtype == np.bool_
    assert exits.tolist() == [t.exit_layer for t in served]
    assert forced.tolist() == [t.forced for t in served]
    for i, (row, trace) in enumerate(zip(entropies, served, strict=True)):
        evaluated = [k for k in policy.allowed if k <= trace.exit_layer]
        assert trace.entropies == {k: float(row[k - 1]) for k in evaluated}, i
        assert list(trace.entropies) == evaluated, i
    return served


def sample_entropies(branches, states):
    """`branch_entropy` of each of one sample's computed layers, shape (len(states),)."""
    return np.array(
        [branch_entropy(branches, states, k) for k in range(1, len(states) + 1)],
        dtype=np.float64,
    )


def cross_entropy(logits, labels, columns=None, rowmax=None):
    """Mean softmax cross-entropy over rows and its logit gradient: `cross_entropy64` on a copy.

    logits: (..., rows, C), float32 kept and anything else cast to float64;
    labels: (rows,) class indices in [0, C), shared by every leading index.
    The core runs in place on the copy, as the trainer and the probe call it,
    with fresh scratch but for the optional columns and rowmax. Returns the
    loss, of the leading shape, in float64, and (softmax - one_hot) / rows.
    """
    x = np.array(logits, dtype=np.float32 if np.asarray(logits).dtype == np.float32 else np.float64)
    rows, classes = x.shape[-2:]
    picks = np.arange(0, rows * classes, classes) + np.asarray(labels)
    picks = picks + np.arange(0, x.size, rows * classes).reshape(x.shape[:-2] + (1,))
    stats = x.shape[:-1] + (1,)
    rowmax = np.empty(stats, dtype=x.dtype) if rowmax is None else rowmax
    rowsum, picked = np.empty(stats, dtype=x.dtype), np.empty(picks.shape, dtype=x.dtype)
    loss = np.empty(x.shape[:-2])
    cross_entropy64(x, picks, picked, rowmax, rowsum, out=x, loss=loss, columns=columns)
    return loss, x


def probe_step(prefixes, labels, head, renormalize=True):
    """`probe._ProbeStep` over a batch of the given normalized prefixes, sample j at row j.

    Call it as step(head, np.arange(len(prefixes))) for the batch's mean loss and gradients.
    """
    frames, dim = prefixes[0].shape[1:]
    cache = np.zeros((head.num_layers, len(prefixes), frames, dim), dtype=np.float32)
    for j, prefix in enumerate(prefixes):
        cache[: len(prefix), j] = prefix
    exits = np.array([len(prefix) for prefix in prefixes])
    labels = np.asarray(labels)
    return _ProbeStep(cache, exits, labels, head.num_labels, len(prefixes), renormalize)


@pytest.fixture(scope="session")
def small_encoder():
    return init_encoder(SMALL_ENCODER)


@pytest.fixture(scope="session")
def small_dataset():
    return synth_dataset(SMALL_DATA)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
