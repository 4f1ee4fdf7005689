from __future__ import annotations

import numpy as np
import pytest

from adaexit.data import SynthDatasetSpec, synth_dataset
from adaexit.encoder import EncoderConfig, IncrementalForward, init_encoder

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


@pytest.fixture(scope="session")
def small_encoder():
    return init_encoder(SMALL_ENCODER)


@pytest.fixture(scope="session")
def small_dataset():
    return synth_dataset(SMALL_DATA)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
