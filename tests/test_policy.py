from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaexit.branches import EntropyProfile, train_branches
from adaexit.encoder import forward_all
from adaexit.errors import ConfigError, FormatError
from adaexit.policy import (
    SPAN_KINDS,
    ExitCounts,
    ExitPolicy,
    calibrate,
    constrain,
    decide_exit,
    fixed_exit_policy,
    load_policy,
    run_exit,
    save_policy,
)
from adaexit.teacher import train_teacher


def _profile(means):
    return EntropyProfile.from_layer_means(means)


def _entropy_seq(values):
    return lambda k: values[k - 1]


def _stats(counts=(0, 0, 0, 1, 0, 0, 0, 0)):
    return ExitCounts(counts)


def oracle_exit(values, threshold, allowed):
    """Brute force: first allowed layer below threshold, else deepest allowed."""
    for k in allowed:
        if values[k - 1] < threshold:
            return k, False
    return allowed[-1], True


class TestCalibrate:
    def test_direct_arithmetic(self):
        policy = calibrate(_profile([4.0, 3.0, 2.0]), 1.0)
        assert policy.threshold == 3.0

    def test_zero_ratio_gives_zero_threshold(self):
        policy = calibrate(_profile([4.0, 3.0, 2.0]), 0.0)
        assert policy.threshold == 0.0

    def test_untrained_profile_arithmetic(self):
        ln32 = math.log(32)
        policy = calibrate(_profile([ln32] * 8), 0.7)
        assert policy.threshold == pytest.approx(0.7 * ln32, abs=1e-12)
        assert policy.threshold == pytest.approx(2.4260, abs=1e-4)

    def test_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            calibrate(_profile([1.0, 0.5]), 1.5)

    def test_records_ratio_and_layers(self):
        policy = calibrate(_profile([1.0, 0.8, 0.6, 0.4]), 0.25)
        assert policy.ratio == 0.25
        assert policy.num_layers == 4
        assert policy.span_kind == "unconstrained"


class TestDecideExit:
    def test_threshold_above_max_entropy_exits_first_layer(self):
        policy = ExitPolicy(threshold=math.log(32) + 1, ratio=1.0, num_layers=6)
        trace = decide_exit(policy, _entropy_seq([3.0] * 6))
        assert trace.exit_layer == 1
        assert not trace.forced
        assert trace.layers_computed == 1

    def test_zero_threshold_forces_deepest(self):
        policy = ExitPolicy(threshold=0.0, ratio=0.0, num_layers=6)
        trace = decide_exit(policy, _entropy_seq([3.0, 2.0, 1.0, 0.5, 0.2, 0.1]))
        assert trace.exit_layer == 6
        assert trace.forced
        assert trace.layers_computed == 6

    def test_first_crossing_wins(self):
        values = [3.0, 2.5, 1.9, 1.0, 0.5, 0.1]
        policy = ExitPolicy(threshold=2.0, ratio=1.0, num_layers=6)
        trace = decide_exit(policy, _entropy_seq(values))
        assert trace.exit_layer == 3
        assert not trace.forced
        assert trace.entropies == {1: 3.0, 2: 2.5, 3: 1.9}

    def test_never_evaluates_beyond_exit(self):
        calls = []

        def probe(k):
            calls.append(k)
            return 0.0

        policy = ExitPolicy(threshold=1.0, ratio=1.0, num_layers=6)
        decide_exit(policy, probe)
        assert calls == [1]

    def test_skips_layers_before_span(self):
        calls = []

        def probe(k):
            calls.append(k)
            return 5.0

        policy = ExitPolicy(
            threshold=1.0, ratio=1.0, num_layers=8, span_kind="minmax", allowed=(3, 4, 5)
        )
        trace = decide_exit(policy, probe)
        assert calls == [3, 4, 5]
        assert trace.exit_layer == 5 and trace.forced

    def test_oracle_equivalence_randomized(self, rng):
        for _ in range(300):
            num_layers = int(rng.integers(2, 10))
            values = rng.uniform(0, 3.5, size=num_layers)
            threshold = float(rng.uniform(0, 3.5))
            counts = rng.integers(0, 6, size=num_layers)
            counts[rng.integers(num_layers)] += 1
            stats = ExitCounts(tuple(counts.tolist()))
            cutoff = float(rng.uniform(0.01, max(stats.fractions) * 0.99))
            policy = constrain(
                ExitPolicy(threshold=threshold, ratio=1.0, num_layers=num_layers),
                str(rng.choice(SPAN_KINDS)), stats, rate_cutoff=cutoff,
            )
            trace = decide_exit(policy, _entropy_seq(values))
            expect_layer, expect_forced = oracle_exit(
                values, threshold, policy.allowed
            )
            assert (trace.exit_layer, trace.forced) == (expect_layer, expect_forced)

    def test_ratio_monotonicity(self, rng):
        # Smaller ratio -> lower threshold -> the first crossing moves deeper.
        for _ in range(50):
            num_layers = 8
            values = np.sort(rng.uniform(0, 3.5, size=num_layers))[::-1]
            profile = _profile(rng.uniform(0.5, 3.0, size=num_layers))
            exits = []
            for ratio in np.linspace(0.0, 1.0, 11):
                policy = calibrate(profile, float(ratio))
                exits.append(decide_exit(policy, _entropy_seq(values)).exit_layer)
            assert all(a >= b for a, b in zip(exits, exits[1:]))


class TestSpans:
    BASE = ExitPolicy(threshold=1.0, ratio=1.0, num_layers=8)

    def test_mean_span_integral(self):
        assert constrain(self.BASE, "mean", _stats()).allowed == (4,)

    def test_mean_span_fractional(self):
        # Mean 17 / 5 = 3.4.
        assert constrain(self.BASE, "mean", _stats((0, 0, 3, 2, 0, 0, 0, 0))).allowed == (3, 4)

    def test_threshold_span_filter_oracle(self):
        # Fractions 0, .05, .40, .35, .10, .10, 0, 0.
        counts = (0, 1, 8, 7, 2, 2, 0, 0)
        policy = constrain(self.BASE, "threshold", _stats(counts), rate_cutoff=0.15)
        assert policy.allowed == (3, 4)

    def test_rate_equal_to_cutoff_excluded(self):
        # Fractions 0, .25, .5, .25, 0, 0, 0, 0.
        counts = (0, 1, 2, 1, 0, 0, 0, 0)
        policy = constrain(self.BASE, "threshold", _stats(counts), rate_cutoff=0.25)
        assert policy.allowed == (3,)

    def test_minmax_span(self):
        counts = (0, 1, 0, 0, 0, 1, 0, 0)
        assert constrain(self.BASE, "minmax", _stats(counts)).allowed == (2, 3, 4, 5, 6)

    def test_empty_threshold_span_rejected_at_construction(self):
        base = ExitPolicy(threshold=1.0, ratio=1.0, num_layers=4)
        with pytest.raises(ConfigError, match="threshold span would be empty"):
            constrain(base, "threshold", _stats((1, 1, 1, 1)), rate_cutoff=0.5)

    @pytest.mark.parametrize("kind", SPAN_KINDS)
    def test_counts_of_another_depth_rejected(self, kind):
        with pytest.raises(ConfigError, match="exit counts cover 4 layers, policy has 8"):
            constrain(self.BASE, kind, _stats((0, 1, 0, 0)))

    @pytest.mark.parametrize("cutoff", [0.0, -0.5, 1.0, 1.5, math.nan])
    def test_cutoff_outside_unit_interval_rejected(self, cutoff):
        with pytest.raises(ConfigError, match=r"rate_cutoff must be in \(0,1\)"):
            constrain(self.BASE, "threshold", _stats(), rate_cutoff=cutoff)

    @pytest.mark.parametrize("allowed", [(), (0,), (9,), (3, 2), (2, 2)])
    def test_bad_allowed_tuple_rejected(self, allowed):
        with pytest.raises(ConfigError, match="allow"):
            ExitPolicy(threshold=1.0, ratio=1.0, num_layers=8, allowed=allowed)

    def test_default_allows_every_layer(self):
        assert self.BASE.allowed == tuple(range(1, 9))


class TestExitCounts:
    def test_all_same_layer(self):
        stats = ExitCounts.of([4] * 5, num_layers=8)
        assert stats.counts == (0, 0, 0, 5, 0, 0, 0, 0)
        assert stats.mean == 4.0
        assert stats.fractions[3] == 1.0
        assert stats.first == stats.last == 4

    def test_two_layer_split(self):
        stats = ExitCounts.of([2, 4], num_layers=8)
        assert stats.mean == 3.0
        assert stats.fractions[1] == 0.5 and stats.fractions[3] == 0.5

    def test_counting_oracle(self, rng):
        exits = rng.integers(1, 9, size=10)
        stats = ExitCounts.of(exits, num_layers=8)
        for k in range(1, 9):
            assert stats.fractions[k - 1] == pytest.approx((exits == k).mean())
        assert stats.mean == pytest.approx(exits.mean())
        assert stats.first == exits.min() and stats.last == exits.max()
        assert stats.num_samples == 10 and stats.layer_sum == exits.sum()
        assert sum(stats.fractions) == pytest.approx(1.0, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="exit counts hold no samples"):
            ExitCounts.of([], num_layers=8)

    @pytest.mark.parametrize("exits", [[0, 3], [3, 9]], ids=["zero", "beyond-L"])
    def test_exit_outside_layers_rejected(self, exits):
        with pytest.raises(ConfigError, match=r"exit layers must be in 1\.\.8"):
            ExitCounts.of(exits, num_layers=8)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((), "exit counts cover no layers"),
            ((0, 0, 0), "exit counts hold no samples"),
            ((2, -1), "nonnegative integers, got -1"),
            ((1.5, 1), "nonnegative integers, got 1.5"),
            ((2.0, 1), "nonnegative integers, got 2.0"),
            ((True, 1), "nonnegative integers, got True"),
            (("3", 1), "nonnegative integers, got '3'"),
            ((np.int64(3), 1), "nonnegative integers, got "),
        ],
        ids=["no-layers", "all-zero", "negative", "fraction", "float", "bool", "str",
             "numpy-int"],
    )
    def test_bad_counts_rejected(self, counts, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExitCounts(counts)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda layers: st.tuples(
                st.just(layers), st.lists(st.integers(1, layers), min_size=1, max_size=400)
            )
        )
    )
    def test_statistics_equal_numpy_from_exits_bitwise(self, case):
        num_layers, exits = case
        exits = np.array(exits, dtype=np.int64)
        n = exits.shape[0]
        stats = ExitCounts.of(exits, num_layers)
        hist = np.bincount(exits, minlength=num_layers + 1)[1:]
        assert stats.mean == float(exits.mean())
        assert stats.fractions == tuple(float(f) for f in hist / n)
        assert {type(x) for x in (stats.mean, *stats.fractions)} == {float}
        assert (stats.first, stats.last) == (int(exits.min()), int(exits.max()))
        saved = 1.0 - stats.layer_sum / (n * num_layers)
        assert saved == 1.0 - float(exits.sum()) / (n * num_layers)


class TestConstrain:
    def _stats(self):
        return ExitCounts.of([2, 3, 3, 4, 4, 4, 5, 8], num_layers=8)

    def test_threshold_and_ratio_preserved(self):
        base = calibrate(_profile([2.0] * 8), 0.6)
        stats = self._stats()
        for kind in ("mean", "threshold", "minmax"):
            constrained = constrain(base, kind, stats)
            assert constrained.threshold == base.threshold
            assert constrained.ratio == base.ratio
            assert constrained.span_kind == kind

    def test_minmax_uses_observed_extremes(self):
        policy = constrain(calibrate(_profile([2.0] * 8), 0.6), "minmax", self._stats())
        assert policy.allowed == (2, 3, 4, 5, 6, 7, 8)

    def test_threshold_cutoff_flag(self):
        stats = self._stats()
        policy = constrain(calibrate(_profile([2.0] * 8), 0.6), "threshold", stats,
                           rate_cutoff=0.3)
        assert policy.allowed == (4,)

    def test_no_layer_above_cutoff_rejected(self):
        with pytest.raises(ConfigError):
            constrain(calibrate(_profile([2.0] * 8), 0.6), "threshold", self._stats(),
                      rate_cutoff=0.9)

    def test_back_to_unconstrained(self):
        policy = constrain(calibrate(_profile([2.0] * 8), 0.6), "minmax", self._stats())
        again = constrain(policy, "unconstrained", self._stats())
        assert again.allowed == tuple(range(1, 9))


@pytest.fixture(scope="module")
def setup(small_encoder, small_dataset):
    teacher = train_teacher(small_encoder, small_dataset, lr=0.3, steps=60, seed=5).head
    branches = train_branches(
        small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=150, seed=6
    ).branches
    return small_encoder, branches


class TestRunExit:
    def test_layers_computed_equals_exit_layer(self, setup, small_dataset):
        enc, branches = setup
        policy = ExitPolicy(threshold=0.0, ratio=0.0, num_layers=enc.config.num_layers)
        hs, trace = run_exit(enc, branches, policy, small_dataset.inputs[0])
        assert trace.exit_layer == enc.config.num_layers
        assert len(hs) == trace.exit_layer == trace.layers_computed

    def test_span_start_computes_passthrough_layers(self, setup, small_dataset):
        enc, branches = setup
        policy = fixed_exit_policy(3, enc.config.num_layers)
        hs, trace = run_exit(enc, branches, policy, small_dataset.inputs[1])
        assert trace.exit_layer == 3
        assert len(hs) == 3
        assert set(trace.entropies) == {3}

    def test_entropies_match_forward_all(self, setup, small_dataset):
        from adaexit.branches import branch_entropy

        enc, branches = setup
        policy = ExitPolicy(threshold=0.35, ratio=0.7, num_layers=enc.config.num_layers)
        hs, trace = run_exit(enc, branches, policy, small_dataset.inputs[2])
        full = forward_all(enc, small_dataset.inputs[2])
        for k, value in trace.entropies.items():
            assert value == branch_entropy(branches, full, k)

    def test_num_layers_mismatch_rejected(self, setup, small_dataset):
        enc, branches = setup
        policy = ExitPolicy(threshold=0.5, ratio=0.5, num_layers=enc.config.num_layers + 1)
        with pytest.raises(ConfigError):
            run_exit(enc, branches, policy, small_dataset.inputs[0])


class TestPolicyFile:
    def test_round_trip(self, tmp_path):
        policy = ExitPolicy(threshold=1.25, ratio=0.7, num_layers=8)
        path = tmp_path / "policy.txt"
        save_policy(policy, path)
        assert load_policy(path) == policy

    def test_constrained_policy_not_saved(self, tmp_path):
        policy = constrain(ExitPolicy(threshold=0.5, ratio=1.0, num_layers=8), "mean", _stats())
        path = tmp_path / "policy.txt"
        with pytest.raises(ConfigError, match="only a calibrated policy is saved"):
            save_policy(policy, path)
        assert not path.exists()

    def test_span_file_refused(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("threshold = 0.5\nratio = 1.0\nnum_layers = 8\nspan = mean\n")
        with pytest.raises(FormatError, match="got 'mean'"):
            load_policy(path)

    def test_saved_policy_is_this_text(self, tmp_path):
        # The layout of policy.txt, written out independently of the key table.
        path = tmp_path / "policy.txt"
        save_policy(ExitPolicy(threshold=0.1 + 0.2, ratio=0.7, num_layers=8), path)
        assert path.read_text() == (
            "threshold = 0.30000000000000004\nratio = 0.7\nnum_layers = 8\nspan = unconstrained\n"
        )

    def test_file_is_human_readable(self, tmp_path):
        path = tmp_path / "policy.txt"
        save_policy(ExitPolicy(threshold=1.25, ratio=0.7, num_layers=8), path)
        text = path.read_text()
        assert "threshold = 1.25" in text
        assert "ratio = 0.7" in text
        assert "span = unconstrained" in text

    def test_missing_key_reports_format_error(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("threshold = 1.0\n")
        with pytest.raises(FormatError):
            load_policy(path)

    def test_nan_threshold_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="^threshold must"):
            ExitPolicy(threshold=float("nan"), ratio=0.7, num_layers=8)
        path = tmp_path / "policy.txt"
        save_policy(ExitPolicy(threshold=1.25, ratio=0.7, num_layers=8), path)
        path.write_text(path.read_text().replace("threshold = 1.25", "threshold = nan"))
        with pytest.raises(ConfigError, match=r"^policy\.txt: threshold must"):
            load_policy(path)

    @pytest.mark.parametrize(
        "old, new, error, message",
        [
            ("threshold = 1.25", "threshold = abc", FormatError,
             "line 1: cannot parse threshold from 'abc'"),
            ("num_layers = 8", "num_layers = 8.0", FormatError,
             "line 3: cannot parse num_layers from '8.0'"),
            ("threshold = 1.25", "threshold = -1", ConfigError,
             "threshold must be nonnegative, got -1.0"),
            ("span = unconstrained", "span = unconstrained\nbogus = 3", FormatError,
             "line 5: unknown key 'bogus'"),
            ("ratio = 0.7", "ratio = 0.7\nthreshold = 2.0", FormatError,
             "line 3: repeated key 'threshold'"),
            ("ratio = 0.7", "ratio 0.7", FormatError, "line 2 is not 'key = value'"),
            ("ratio = 0.7\n", "", FormatError, "missing key 'ratio'"),
        ],
        ids=["threshold-text", "layers-float", "threshold-negative", "unknown-key",
             "repeated-key", "no-equals", "missing-key"],
    )
    def test_bad_file_named_with_its_key(self, tmp_path, old, new, error, message):
        path = tmp_path / "policy.txt"
        save_policy(ExitPolicy(threshold=1.25, ratio=0.7, num_layers=8), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(error, match="^policy\\.txt: " + re.escape(message)):
            load_policy(path)
