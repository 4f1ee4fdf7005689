"""In-memory span tracing of adaexit's public entry points, installed from outside.

`Tracer.install` replaces each entry point in `ENTRY_POINTS` with a wrapper,
in its defining module and in every adaexit module that imported it by name,
and `Tracer.uninstall` puts the originals back. No source file changes.

Every wrapped call records one span: name, start, end, parent span, trace id
and one number (`value`) that some entry points fill in, such as the blocks a
call advanced. A span opened while no span is open starts a new trace, so
each request the benchmark serves and each pipeline stage has its own trace
id. Spans stay in flat arrays until the run ends; `Spans` turns them into
numpy arrays, `self_times` and `roots` derive the structure, and
`layer_metrics` computes the per-layer metrics from them.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (span name, module, attribute). A dotted attribute is a method of a class.
ENTRY_POINTS = (
    ("data.synth_dataset", "adaexit.data", "synth_dataset"),
    ("data.add_noise", "adaexit.data", "add_noise"),
    ("data.make_mixture", "adaexit.data", "make_mixture"),
    ("encoder.embed", "adaexit.encoder", "IncrementalForward.__init__"),
    ("encoder.hidden", "adaexit.encoder", "IncrementalForward.hidden"),
    ("encoder.forward_all", "adaexit.encoder", "forward_all"),
    ("branches.entropy", "adaexit.branches", "entropy_from_hidden"),
    ("branches.train", "adaexit.branches", "train_branches"),
    ("branches.profile", "adaexit.branches", "entropy_profile"),
    ("teacher.train", "adaexit.teacher", "train_teacher"),
    ("policy.decide_exit", "adaexit.policy", "decide_exit"),
    ("policy.run_exit", "adaexit.policy", "run_exit"),
    ("probe.normalize", "adaexit.probe", "normalize_prefix"),
    ("probe.features", "adaexit.probe", "weighted_features"),
    ("probe.train", "adaexit.probe", "train_downstream"),
    ("probe.evaluate", "adaexit.probe", "evaluate"),
    ("probe.evaluate_static", "adaexit.probe", "evaluate_static"),
    ("serialize.save_checkpoint", "adaexit.serialize", "save_checkpoint"),
    ("serialize.load_checkpoint", "adaexit.serialize", "load_checkpoint"),
    ("serialize.save_dataset", "adaexit.serialize", "save_dataset"),
    ("serialize.load_dataset", "adaexit.serialize", "load_dataset"),
    ("stage.synth", "adaexit.pipeline", "stage_synth"),
    ("stage.teacher", "adaexit.pipeline", "stage_teacher"),
    ("stage.branches", "adaexit.pipeline", "stage_branches"),
    ("stage.calibrate", "adaexit.pipeline", "stage_calibrate"),
    ("stage.downstream", "adaexit.pipeline", "stage_downstream"),
    ("stage.eval", "adaexit.pipeline", "stage_eval"),
    ("stage.noise_sweep", "adaexit.pipeline", "noise_sweep"),
    ("stage.compare_static", "adaexit.pipeline", "compare_static"),
    ("numeric.matmul64", "adaexit.numeric", "matmul64"),
)

STAGES = (
    "synth", "teacher", "branches", "calibrate", "downstream", "eval", "noise_sweep",
    "compare_static",
)

# The benchmark's own root span around one served request.
REQUEST = "request"


def _blocks_before(args):
    return args[0].layers_done


def _blocks_advanced(args, result, before):
    return args[0].layers_done - before


def _exit_forced(args, result, before):
    return float(result[1].forced)


# span name -> (called before the entry point, called after it with its result)
VALUE_PROBES = {
    "encoder.hidden": (_blocks_before, _blocks_advanced),
    "policy.run_exit": (None, _exit_forced),
}


def _adaexit_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "adaexit" or name.startswith("adaexit."))
    ]


class Tracer:
    """Records spans of wrapped entry points and of the benchmark's own roots."""

    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._trace = array("q")
        self._start = array("d")
        self._end = array("d")
        self._value = array("d")
        self._stack: list[int] = []
        self._traces = [0]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = -1
            self._traces[0] += 1
        self._name.append(name_id)
        self._parent.append(parent)
        self._trace.append(self._traces[0])
        self._start.append(0.0)
        self._end.append(0.0)
        self._value.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        pre, post = VALUE_PROBES.get(name, (None, None))
        open_span, stack, starts, ends, values = (
            self._open, self._stack, self._start, self._end, self._value,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            before = _probe(pre, args) if pre else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if post:
                values[idx] = _probe(post, args, result, before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one served request."""
        idx = self._open(self._name_id(name))
        self._start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap every entry point; one that no longer exists is recorded as missing."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self._note_missing(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None or not callable(original):
                self._note_missing(name)
                continue
            wrapper = self._wrap(name, original)
            targets = [owner] if path else [
                module for module in _adaexit_modules() if getattr(module, leaf, None) is original
            ]
            for target in targets:
                setattr(target, leaf, wrapper)
                self._patched.append((target, leaf, original))

    def _note_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._patched):
            setattr(target, leaf, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def spans(self) -> "Spans":
        if self._stack:
            raise RuntimeError("spans are still open")
        return Spans(
            names=tuple(self.names),
            name=np.frombuffer(self._name, dtype=np.int32).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int64).copy(),
            trace=np.frombuffer(self._trace, dtype=np.int64).copy(),
            start=np.frombuffer(self._start, dtype=np.float64).copy(),
            end=np.frombuffer(self._end, dtype=np.float64).copy(),
            value=np.frombuffer(self._value, dtype=np.float64).copy(),
        )


def _probe(fn, *args):
    """A probe reads program state; if that state changed shape, the value is unknown."""
    try:
        return fn(*args)
    except (AttributeError, IndexError, KeyError, TypeError):
        return math.nan


@dataclass(frozen=True)
class Spans:
    names: tuple[str, ...]
    name: np.ndarray  # int32 index into names
    parent: np.ndarray  # int64 span index, -1 for a root
    trace: np.ndarray  # int64 trace id
    start: np.ndarray  # float64 seconds
    end: np.ndarray
    value: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def named(self, name: str) -> np.ndarray:
        """Mask of the spans called `name` (all false if none was recorded)."""
        if name not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        return self.name == self.names.index(name)

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            trace=self.trace,
            start=self.start,
            end=self.end,
            value=self.value,
        )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (calls are nested on one thread), so
    their summed durations are the part of the interval they cover.
    """
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=parent.shape[0])
    return duration - covered


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root)."""
    root = np.arange(parent.shape[0])
    up = parent.copy()
    while (up >= 0).any():
        has = up >= 0
        root[has] = up[has]
        up[has] = parent[root[has]]
    return root


def _outermost(spans: Spans, mask: np.ndarray) -> np.ndarray:
    """Spans in `mask` that have no ancestor in `mask`."""
    ancestor_in = np.zeros(mask.shape, dtype=bool)
    up = spans.parent.copy()
    while (up >= 0).any():
        has = up >= 0
        ancestor_in[has] |= mask[up[has]]
        up[has] = spans.parent[up[has]]
    return mask & ~ancestor_in


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> entry points it is measured at. A metric is missing when one of
# them could not be wrapped; trace.overhead_frac is computed by the workload.
METRIC_SOURCES = {
    "encoder.block_us": ("encoder.hidden",),
    "encoder.embed_us": ("encoder.embed",),
    "encoder.busy_s": ("encoder.embed", "encoder.hidden"),
    "encoder.forwards": ("encoder.embed",),
    "encoder.blocks": ("encoder.hidden",),
    **{f"encoder.forwards.{stage}": ("encoder.embed",) for stage in STAGES},
    "branches.evals": ("branches.entropy",),
    "branches.eval_us": ("branches.entropy",),
    "branches.busy_s": ("branches.entropy",),
    "branches.useful_ratio": ("branches.entropy", "policy.run_exit"),
    "policy.decide_us": ("policy.decide_exit",),
    "policy.forced_frac": ("policy.run_exit",),
    "probe.normalize_us": ("probe.normalize",),
    "probe.features_us": ("probe.features",),
    "teacher.train_s": ("teacher.train",),
    "branches.train_s": ("branches.train",),
    "probe.train_s": ("probe.train",),
    "branches.profile_s": ("branches.profile",),
    "branches.profile_calls": ("branches.profile",),
    "probe.evaluate_s": ("probe.evaluate",),
    "probe.evaluate_static_s": ("probe.evaluate_static",),
    "policy.run_exit_s": ("policy.run_exit",),
    **{f"pipeline.{stage}_s": () for stage in STAGES},
    "serialize.s": (
        "serialize.save_checkpoint", "serialize.load_checkpoint",
        "serialize.save_dataset", "serialize.load_dataset",
    ),
    "data.synth_s": ("data.synth_dataset",),
    "data.noise_s": ("data.add_noise", "data.make_mixture"),
    "numeric.matmul64.calls": ("numeric.matmul64",),
    "numeric.matmul64_s": ("numeric.matmul64",),
}


def layer_metrics(spans: Spans, missing=(), work: np.ndarray | None = None) -> dict:
    """Per-layer metrics; a metric whose entry point is missing maps to None.

    `work` masks the spans of the measured work (the served requests of a
    serve workload). Per-call and serving-path metrics use only those spans;
    training, serialization, data and stage metrics use every span, so on
    the serve workloads they describe set-up. `pipeline.<stage>_s` and
    `encoder.forwards.<stage>` group spans by their root span `stage.<stage>`,
    which the serve workloads also use to label their set-up phases.
    """
    if work is None:
        work = np.ones(spans.name.shape, dtype=bool)
    dur = spans.duration
    self_dur = self_times(spans.parent, dur)
    root = roots(spans.parent)

    def total(name, scope=None):
        mask = spans.named(name) & (work if scope is None else scope)
        return float(dur[mask].sum()), int(mask.sum()), mask

    every = np.ones(spans.name.shape, dtype=bool)
    hid_s, _, hid = total("encoder.hidden")
    emb_s, forwards, _ = total("encoder.embed")
    blocks = float(spans.value[hid].sum())
    ent_s, evals, _ = total("branches.entropy")
    _, run_exits, runs = total("policy.run_exit")
    forced = float(spans.value[runs].sum())
    decide = spans.named("policy.decide_exit") & work
    norm_s, norms, _ = total("probe.normalize")
    feat_s, feats, _ = total("probe.features")
    mm_s, mm_calls, _ = total("numeric.matmul64")
    embeds = spans.named("encoder.embed")
    metrics = {
        "encoder.block_us": 1e6 * _ratio(hid_s, blocks),
        "encoder.embed_us": 1e6 * _ratio(emb_s, forwards),
        "encoder.busy_s": emb_s + hid_s,
        "encoder.forwards": forwards,
        "encoder.blocks": int(blocks) if math.isfinite(blocks) else math.nan,
        "branches.evals": evals,
        "branches.eval_us": 1e6 * _ratio(ent_s, evals),
        "branches.busy_s": ent_s,
        "branches.useful_ratio": _ratio(run_exits - forced, evals),
        "policy.decide_us": 1e6 * _ratio(float(self_dur[decide].sum()), int(decide.sum())),
        "policy.forced_frac": _ratio(forced, run_exits),
        "probe.normalize_us": 1e6 * _ratio(norm_s, norms),
        "probe.features_us": 1e6 * _ratio(feat_s, feats),
        "teacher.train_s": total("teacher.train", every)[0],
        "branches.train_s": total("branches.train", every)[0],
        "probe.train_s": total("probe.train", every)[0],
        "branches.profile_s": total("branches.profile", every)[0],
        "branches.profile_calls": total("branches.profile", every)[1],
        "probe.evaluate_s": total("probe.evaluate", every)[0],
        "probe.evaluate_static_s": total("probe.evaluate_static", every)[0],
        "policy.run_exit_s": total("policy.run_exit", every)[0],
        "data.synth_s": total("data.synth_dataset", every)[0],
        "numeric.matmul64.calls": mm_calls,
        "numeric.matmul64_s": mm_s,
    }
    for stage in STAGES:
        in_stage = spans.named(f"stage.{stage}")[root]
        metrics[f"encoder.forwards.{stage}"] = int((embeds & in_stage).sum())
        metrics[f"pipeline.{stage}_s"] = float(dur[spans.named(f"stage.{stage}")].sum())
    for metric, group in (
        ("serialize.s", METRIC_SOURCES["serialize.s"]),
        ("data.noise_s", METRIC_SOURCES["data.noise_s"]),
    ):
        mask = np.zeros(spans.name.shape, dtype=bool)
        for name in group:
            mask |= spans.named(name)
        metrics[metric] = float(dur[_outermost(spans, mask)].sum())
    for metric, sources in METRIC_SOURCES.items():
        value = metrics[metric]
        if any(source in missing for source in sources) or (
            isinstance(value, float) and math.isnan(value)
        ):
            metrics[metric] = None
    return metrics


def work_mask(spans: Spans, root: str = REQUEST) -> np.ndarray:
    """Spans whose outermost ancestor is a benchmark root span called `root`."""
    return spans.named(root)[roots(spans.parent)]
