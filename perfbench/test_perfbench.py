"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from adaexit import branches, data, encoder, policy, probe  # noqa: E402


class TestTailPercentile:
    def test_reported_with_ten_samples_beyond(self):
        samples = list(range(1, 1001))  # rank 990 leaves exactly ten beyond
        assert workloads.tail_percentile(samples, 99) == 990

    def test_withheld_with_fewer_than_ten_beyond(self):
        assert workloads.tail_percentile(list(range(999)), 99) is None
        assert workloads.tail_percentile([], 99) is None

    def test_median_needs_ten_beyond_too(self):
        assert workloads.tail_percentile(list(range(19)), 50) is None
        assert workloads.tail_percentile(list(range(20)), 50) == 9

    def test_order_does_not_matter(self):
        samples = np.random.default_rng(3).random(2000).tolist()
        assert workloads.tail_percentile(samples, 99) == sorted(samples)[1979]


class TestSustainedRate:
    @staticmethod
    def _segment(window_seconds, window):
        done = np.concatenate([[0.0], np.cumsum(np.repeat(window_seconds, window) / window)])
        n = done.size
        return workloads.Served(list(range(n)), [0.0] * n, done.tolist(), [1] * n,
                                [None] * n, [], float(done[-1]))

    def test_rate_of_the_slowest_tenth(self):
        # 110 windows of 50 requests: 100 take 1 s, 10 take 2 s; the nearest-rank
        # p90 of the window times is the 99th, 1 s, with the ten slow ones beyond.
        times = np.array([1.0] * 100 + [2.0] * 10)
        times = np.random.default_rng(4).permutation(times)
        segments = [self._segment(part, 50) for part in np.array_split(times, 3)]
        assert workloads.sustained_rate(segments, 50) == pytest.approx(50.0)

    def test_withheld_with_fewer_than_ten_windows_beyond(self):
        segments = [self._segment(np.ones(33), 50) for _ in range(3)]
        assert workloads.sustained_rate(segments, 50) is None


def _spans(names, rows):
    """rows: (name, start, end, parent)"""
    table = tuple(names)
    return tracing.Spans(
        names=table,
        name=np.array([table.index(r[0]) for r in rows], dtype=np.int32),
        parent=np.array([r[3] for r in rows], dtype=np.int64),
        trace=np.zeros(len(rows), dtype=np.int64),
        start=np.array([r[1] for r in rows], dtype=np.float64),
        end=np.array([r[2] for r in rows], dtype=np.float64),
        value=np.zeros(len(rows), dtype=np.float64),
    )


class TestSpanArithmetic:
    ROWS = [
        ("request", 0.0, 10.0, -1),
        ("policy.decide_exit", 1.0, 9.0, 0),
        ("encoder.hidden", 2.0, 4.0, 1),
        ("branches.entropy", 5.0, 8.0, 1),
        ("numeric.matmul64", 5.5, 6.5, 3),
        ("request", 11.0, 12.0, -1),
    ]
    NAMES = ["request", "policy.decide_exit", "encoder.hidden", "branches.entropy",
             "numeric.matmul64"]

    def test_self_time_subtracts_direct_children_only(self):
        spans = _spans(self.NAMES, self.ROWS)
        got = tracing.self_times(spans.parent, spans.duration)
        np.testing.assert_allclose(got, [2.0, 3.0, 2.0, 2.0, 1.0, 1.0])

    def test_self_times_sum_to_root_durations(self):
        spans = _spans(self.NAMES, self.ROWS)
        total = tracing.self_times(spans.parent, spans.duration).sum()
        assert total == pytest.approx(spans.duration[spans.parent < 0].sum())

    def test_roots(self):
        spans = _spans(self.NAMES, self.ROWS)
        assert tracing.roots(spans.parent).tolist() == [0, 0, 0, 0, 0, 5]

    def test_decide_self_time_excludes_callbacks(self):
        spans = _spans(self.NAMES, self.ROWS)
        metrics = tracing.layer_metrics(spans, work=tracing.work_mask(spans))
        assert metrics["policy.decide_us"] == pytest.approx(3.0e6)
        assert metrics["branches.evals"] == 1
        assert metrics["numeric.matmul64_s"] == pytest.approx(1.0)

    def test_missing_entry_point_is_none_not_zero(self):
        spans = _spans(self.NAMES, self.ROWS)
        metrics = tracing.layer_metrics(spans, missing=("branches.entropy",))
        assert metrics["branches.evals"] is None
        assert metrics["branches.useful_ratio"] is None
        assert metrics["encoder.blocks"] == 0


@pytest.fixture(scope="module")
def tiny_model():
    enc = encoder.init_encoder(encoder.EncoderConfig(
        num_layers=4, model_dim=16, num_heads=2, ffn_dim=32, max_frames=16, input_dim=6, seed=9))
    ds = data.synth_dataset(data.SynthDatasetSpec(
        num_sequences=24, frames=12, input_dim=6, num_classes=5, context_window=3, seed=21))
    rng = np.random.default_rng(5)
    exits = branches.BranchSet(
        weights=(rng.standard_normal((4, 5, 16)) * 0.5).astype(np.float32),
        biases=np.zeros((4, 5), dtype=np.float32),
    )
    head = probe.init_downstream_head(4, 5, 16, seed=2)
    exit_policy = policy.calibrate(branches.entropy_profile(enc, exits, ds), 1.0)
    model = workloads.Model(enc, exits, exit_policy, head, renormalize=True)
    return model, ds


class TestOracleCheck:
    def _served(self, model, ds):
        order = iter(list(range(ds.num_sequences)) * 2)
        return workloads.serve(model, workloads.answer_adaptive, ds.inputs, order,
                               workloads.count_stop(2 * ds.num_sequences))

    def test_served_answers_pass(self, tiny_model):
        model, ds = tiny_model
        served = self._served(model, ds)
        ref_exits, ref_preds = workloads.reference_answers(model, ds.inputs, full_depth=False)
        assert len(set(ref_exits.tolist())) > 1  # the check sees more than one exit depth
        assert not workloads.check_requests(served, ref_exits, ref_preds).any()

    def test_wrong_exit_layer_is_rejected(self, tiny_model):
        model, ds = tiny_model
        served = self._served(model, ds)
        ref_exits, ref_preds = workloads.reference_answers(model, ds.inputs, full_depth=False)
        served.exits[7] = served.exits[7] % model.num_layers + 1
        bad = workloads.check_requests(served, ref_exits, ref_preds)
        assert bad.tolist() == [n == 7 for n in range(served.count)]

    def test_failed_request_is_rejected(self, tiny_model):
        model, ds = tiny_model
        served = self._served(model, ds)
        ref_exits, ref_preds = workloads.reference_answers(model, ds.inputs, full_depth=False)
        served.preds[3] = None
        assert workloads.check_requests(served, ref_exits, ref_preds).sum() == 1

    def test_traced_counts_match_exit_layers(self, tiny_model):
        model, ds = tiny_model
        tracer = tracing.Tracer()
        with tracer.installed():
            served = workloads.serve(
                model, workloads.answer_adaptive, ds.inputs, iter(range(ds.num_sequences)),
                workloads.count_stop(ds.num_sequences), tracer.span)
        assert not hasattr(encoder.IncrementalForward.hidden, "__wrapped__")
        spans = tracer.spans()
        metrics = tracing.layer_metrics(spans, tracer.missing, tracing.work_mask(spans))
        assert tracer.missing == []
        assert metrics["encoder.blocks"] == sum(served.exits)
        assert metrics["branches.evals"] == sum(served.exits)
        assert metrics["encoder.forwards"] == ds.num_sequences
        assert len(set(spans.trace[spans.named(tracing.REQUEST)].tolist())) == ds.num_sequences
