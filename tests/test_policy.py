from __future__ import annotations

import math
import re

import numpy as np
import pytest

from adaexit.branches import EntropyProfile, train_branches
from adaexit.encoder import forward_all
from adaexit.errors import ConfigError, FormatError
from adaexit.policy import (
    SPAN_KINDS,
    ExitPolicy,
    ExitTrace,
    SpanStats,
    calibrate,
    collect_span_stats,
    constrain,
    decide_exit,
    fixed_exit_policy,
    load_policy,
    run_exit,
    save_policy,
)
from adaexit.teacher import train_teacher


def _profile(means):
    return EntropyProfile.from_layer_means(means, num_samples=10)


def _entropy_seq(values):
    return lambda k: values[k - 1]


def _stats(mean=4.0, rates=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0), lo=4, hi=4):
    return SpanStats(mean_exit=mean, exit_rates=rates, min_exit=lo, max_exit=hi, num_traces=1)


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
            rates = rng.dirichlet(np.ones(num_layers))
            lo = int(rng.integers(1, num_layers + 1))
            hi = int(rng.integers(lo, num_layers + 1))
            stats = _stats(float(rng.uniform(lo, hi)), tuple(float(r) for r in rates), lo, hi)
            cutoff = float(rng.uniform(0.01, float(rates.max()) * 0.99))
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
        assert constrain(self.BASE, "mean", _stats(mean=4.0)).allowed == (4,)

    def test_mean_span_fractional(self):
        assert constrain(self.BASE, "mean", _stats(mean=3.4)).allowed == (3, 4)

    def test_threshold_span_filter_oracle(self):
        rates = (0.0, 0.05, 0.40, 0.35, 0.10, 0.10, 0.0, 0.0)
        policy = constrain(self.BASE, "threshold", _stats(rates=rates), rate_cutoff=0.15)
        assert policy.allowed == (3, 4)

    def test_rate_equal_to_cutoff_excluded(self):
        rates = (0.0, 0.25, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0)
        policy = constrain(self.BASE, "threshold", _stats(rates=rates), rate_cutoff=0.25)
        assert policy.allowed == (3,)

    def test_minmax_span(self):
        assert constrain(self.BASE, "minmax", _stats(lo=2, hi=6)).allowed == (2, 3, 4, 5, 6)

    def test_empty_threshold_span_rejected_at_construction(self):
        base = ExitPolicy(threshold=1.0, ratio=1.0, num_layers=4)
        with pytest.raises(ConfigError, match="threshold span would be empty"):
            constrain(base, "threshold", _stats(rates=(0.1, 0.1, 0.1, 0.1)), rate_cutoff=0.5)

    def test_invalid_minmax_rejected(self):
        base = ExitPolicy(threshold=1.0, ratio=1.0, num_layers=4)
        with pytest.raises(ConfigError, match=r"minmax span needs 1 <= min <= max <= L"):
            constrain(base, "minmax", _stats(lo=3, hi=2))

    @pytest.mark.parametrize("mean", [0.5, 8.5, float("nan"), float("inf")])
    def test_mean_outside_layers_rejected(self, mean):
        with pytest.raises(ConfigError, match=r"mean span needs mean_exit in \[1, L\]"):
            constrain(self.BASE, "mean", _stats(mean=mean))

    @pytest.mark.parametrize("cutoff", [0.0, -0.5])
    def test_cutoff_outside_unit_interval_rejected(self, cutoff):
        with pytest.raises(ConfigError, match=r"rate_cutoff must be in \(0,1\)"):
            constrain(self.BASE, "threshold", _stats(), rate_cutoff=cutoff)

    @pytest.mark.parametrize("allowed", [(), (0,), (9,), (3, 2), (2, 2)])
    def test_bad_allowed_tuple_rejected(self, allowed):
        with pytest.raises(ConfigError, match="allow"):
            ExitPolicy(threshold=1.0, ratio=1.0, num_layers=8, allowed=allowed)

    def test_default_allows_every_layer(self):
        assert self.BASE.allowed == tuple(range(1, 9))


class TestSpanStats:
    def _trace(self, sample_id, exit_layer, forced=False):
        return ExitTrace(
            sample_id=sample_id, exit_layer=exit_layer,
            entropies={exit_layer: 0.5}, layers_computed=exit_layer, forced=forced,
        )

    def test_all_same_layer(self):
        stats = collect_span_stats([self._trace(i, 4) for i in range(5)], num_layers=8)
        assert stats.mean_exit == 4.0
        assert stats.exit_rates[3] == 1.0
        assert stats.min_exit == stats.max_exit == 4

    def test_two_layer_split(self):
        traces = [self._trace(0, 2), self._trace(1, 4)]
        stats = collect_span_stats(traces, num_layers=8)
        assert stats.mean_exit == 3.0
        assert stats.exit_rates[1] == 0.5 and stats.exit_rates[3] == 0.5

    def test_counting_oracle(self, rng):
        exits = rng.integers(1, 9, size=10)
        traces = [self._trace(i, int(k)) for i, k in enumerate(exits)]
        stats = collect_span_stats(traces, num_layers=8)
        for k in range(1, 9):
            assert stats.exit_rates[k - 1] == pytest.approx((exits == k).mean())
        assert stats.mean_exit == pytest.approx(exits.mean())
        assert stats.min_exit == exits.min() and stats.max_exit == exits.max()
        assert sum(stats.exit_rates) == pytest.approx(1.0, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collect_span_stats([], num_layers=8)


class TestConstrain:
    def _stats(self):
        traces = [
            ExitTrace(i, k, {k: 0.1}, k, False)
            for i, k in enumerate([2, 3, 3, 4, 4, 4, 5, 8])
        ]
        return collect_span_stats(traces, num_layers=8)

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
