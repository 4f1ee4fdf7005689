from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from adaexit.data import (
    FrameDataset,
    MixtureSpec,
    NoiseSpec,
    SynthDatasetSpec,
    add_noise,
    largest_remainder_counts,
    make_mixture,
    synth_dataset,
)
from adaexit.errors import ConfigError
from adaexit.serialize import dataset_to_bytes

from conftest import SMALL_DATA


class TestSynth:
    def test_same_seed_identical_bytes(self):
        a = synth_dataset(SMALL_DATA)
        b = synth_dataset(SMALL_DATA)
        assert dataset_to_bytes(a) == dataset_to_bytes(b)

    def test_different_seed_differs(self):
        a = synth_dataset(SMALL_DATA)
        b = synth_dataset(replace(SMALL_DATA, seed=99))
        assert dataset_to_bytes(a) != dataset_to_bytes(b)

    def test_self_prob_one_gives_constant_labels(self):
        data = synth_dataset(replace(SMALL_DATA, markov_self_prob=1.0))
        assert (data.labels == data.labels[:, :1]).all()

    def test_window_one_equals_per_frame_class(self):
        # With no jitter the inputs are exact prototypes, so the per-frame
        # class can be recovered and must equal the window-1 labels.
        spec = replace(SMALL_DATA, context_window=1, jitter_std=0.0)
        data = synth_dataset(spec)
        rng_twin = np.random.default_rng(spec.seed)
        prototypes = rng_twin.standard_normal((spec.num_classes, spec.input_dim))
        for i in range(4):
            for t in range(spec.frames):
                dists = ((prototypes - data.inputs[i, t].astype(np.float64)) ** 2).sum(axis=1)
                assert data.labels[i, t] == dists.argmin()

    def test_majority_window_oracle(self):
        # The window only affects labeling, not the underlying chain, so the
        # window-1 labels are the chain itself; recompute majorities from it.
        base = synth_dataset(replace(SMALL_DATA, context_window=1))
        windowed = synth_dataset(replace(SMALL_DATA, context_window=5))
        states = base.labels
        half = 2
        for i in range(6):
            for t in range(SMALL_DATA.frames):
                lo = max(0, t - half)
                hi = min(SMALL_DATA.frames, t + half + 1)
                counts = np.bincount(states[i, lo:hi], minlength=SMALL_DATA.num_classes)
                assert windowed.labels[i, t] == counts.argmax()

    def test_window_must_be_odd(self):
        with pytest.raises(ConfigError):
            SynthDatasetSpec(context_window=4)

    def test_window_cannot_exceed_frames(self):
        with pytest.raises(ConfigError):
            SynthDatasetSpec(frames=8, context_window=9)

    def test_inputs_float32(self):
        data = synth_dataset(SMALL_DATA)
        assert data.inputs.dtype == np.float32
        assert data.labels.dtype == np.int32


def _measure_snr_db(clean: FrameDataset, noisy: FrameDataset, i: int) -> float:
    x = clean.inputs[i].astype(np.float64)
    n = noisy.inputs[i].astype(np.float64) - x
    return 10.0 * np.log10((x**2).sum() / (n**2).sum())


@pytest.fixture(scope="module")
def clean():
    return synth_dataset(SMALL_DATA)


@pytest.fixture(scope="module")
def clean_50():
    return synth_dataset(replace(SMALL_DATA, num_sequences=50))


class TestAddNoise:
    def test_clean_spec_is_identity(self, clean):
        out = add_noise(clean, NoiseSpec(snr_db=None, seed=3))
        assert np.array_equal(out.inputs, clean.inputs)

    def test_zero_db_matches_signal_power(self, clean):
        out = add_noise(clean, NoiseSpec(snr_db=0.0, seed=3))
        for i in range(4):
            x = clean.inputs[i].astype(np.float64)
            n = out.inputs[i].astype(np.float64) - x
            assert (n**2).sum() == pytest.approx((x**2).sum(), rel=1e-5)

    def test_high_snr_is_nearly_clean(self, clean):
        # +60 dB puts the injected perturbation at 1e-3 of the signal norm.
        out = add_noise(clean, NoiseSpec(snr_db=60.0, seed=3))
        diff = (out.inputs - clean.inputs).astype(np.float64)
        rel = np.linalg.norm(diff) / np.linalg.norm(clean.inputs.astype(np.float64))
        assert rel <= 1e-3 * 1.01

    def test_ten_db_power_ratio_oracle(self):
        # Unit-power signal: injected noise power must be 0.1.
        inputs = np.ones((1, 4, 4), dtype=np.float32)
        data = FrameDataset(
            inputs=inputs, labels=np.zeros((1, 4), dtype=np.int32), num_classes=2
        )
        out = add_noise(data, NoiseSpec(snr_db=10.0, seed=3))
        n = out.inputs[0].astype(np.float64) - 1.0
        assert (n**2).mean() == pytest.approx(0.1, rel=1e-5)

    @pytest.mark.parametrize("snr", [10.0, 5.0, 0.0, -5.0])
    @pytest.mark.parametrize("kind", ["gaussian", "tonal"])
    def test_snr_round_trip(self, clean, snr, kind):
        out = add_noise(clean, NoiseSpec(snr_db=snr, kind=kind, seed=3))
        for i in range(5):
            assert _measure_snr_db(clean, out, i) == pytest.approx(snr, abs=0.01)

    def test_labels_unchanged(self, clean):
        out = add_noise(clean, NoiseSpec(snr_db=0.0, seed=3))
        assert np.array_equal(out.labels, clean.labels)

    def test_all_zero_sequence_skipped_with_warning(self):
        inputs = np.zeros((2, 4, 4), dtype=np.float32)
        inputs[1] = 1.0
        data = FrameDataset(
            inputs=inputs, labels=np.zeros((2, 4), dtype=np.int32), num_classes=2
        )
        with pytest.warns(UserWarning, match="all zeros"):
            out = add_noise(data, NoiseSpec(snr_db=5.0, seed=3))
        assert np.array_equal(out.inputs[0], inputs[0])
        assert not np.array_equal(out.inputs[1], inputs[1])

    def test_deterministic_per_seed(self, clean):
        a = add_noise(clean, NoiseSpec(snr_db=5.0, seed=3))
        b = add_noise(clean, NoiseSpec(snr_db=5.0, seed=3))
        assert np.array_equal(a.inputs, b.inputs)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(snr_db=5.0, kind="pink")


class TestLargestRemainder:
    def test_default_mixture_sizes(self):
        assert largest_remainder_counts(1000, [0.4, 0.3, 0.2, 0.1]) == [400, 300, 200, 100]

    def test_rounding_distributes_remainder(self):
        assert sum(largest_remainder_counts(10, [1 / 3, 1 / 3, 1 / 3])) == 10

    def test_exact_on_awkward_total(self):
        counts = largest_remainder_counts(7, [0.5, 0.5])
        assert sorted(counts) == [3, 4] and counts[0] == 4  # tie -> lower index first


class TestMixture:
    def _spec(self):
        return MixtureSpec(
            parts=(
                (NoiseSpec(snr_db=None, seed=7), 0.4),
                (NoiseSpec(snr_db=10.0, seed=7), 0.3),
                (NoiseSpec(snr_db=5.0, seed=7), 0.2),
                (NoiseSpec(snr_db=0.0, seed=7), 0.1),
            )
        )

    def test_single_clean_part_is_identity(self, clean_50):
        spec = MixtureSpec(parts=((NoiseSpec(snr_db=None, seed=7), 1.0),))
        out = make_mixture(clean_50, spec, seed=11)
        assert np.array_equal(out.inputs, clean_50.inputs)
        assert all(tag == "clean" for tag in out.tags)

    def test_partition_sizes(self, clean_50):
        out = make_mixture(clean_50, self._spec(), seed=11)
        tags = np.array(out.tags)
        assert (tags == "clean").sum() == 20
        assert (tags == "10").sum() == 15
        assert (tags == "5").sum() == 10
        assert (tags == "0").sum() == 5

    def test_tags_match_modification_pattern(self, clean_50):
        # Recount oracle: clean-tagged rows are untouched, others are noised
        # at their tagged level.
        out = make_mixture(clean_50, self._spec(), seed=11)
        for i, tag in enumerate(out.tags):
            same = np.array_equal(out.inputs[i], clean_50.inputs[i])
            if tag == "clean":
                assert same
            else:
                assert not same
                level = float(tag)
                assert _measure_snr_db(clean_50, out, i) == pytest.approx(level, abs=0.01)

    def test_labels_preserved(self, clean_50):
        out = make_mixture(clean_50, self._spec(), seed=11)
        assert np.array_equal(out.labels, clean_50.labels)

    def test_deterministic(self, clean_50):
        a = make_mixture(clean_50, self._spec(), seed=11)
        b = make_mixture(clean_50, self._spec(), seed=11)
        assert np.array_equal(a.inputs, b.inputs)
        assert a.tags == b.tags

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            MixtureSpec(parts=((NoiseSpec(snr_db=None, seed=7), 0.5),))
