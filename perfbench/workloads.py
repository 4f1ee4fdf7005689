"""The benchmark's workloads and the checks on their outputs.

Each workload drives adaexit only through the public functions of its
modules, called through the module so that a traced run sees every call.
Inputs come from the workload seed alone. Every output check runs after the
timed loop, never inside it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from adaexit import branches, data, encoder, pipeline, policy, probe, serialize, teacher

import tracing

DEFAULT_SEED = 0  # gives the repository's default noise_seed, 107
CONFIRM_SEED = 1  # reserved for confirming a claimed gain; do not tune against it

SEGMENTS = 3  # timed segments per run; the serve workloads set up before each
WARMUP_REQUESTS = 20
# Per run: ten latencies beyond the 99th percentile need 1000 requests, and
# ten throughput windows beyond the slowest tenth need 100 windows.
MIN_REQUESTS = 6000
# Distinct held-out sequences a serve workload cycles through. The pool is
# the same for every seed: the seed draws only the noise and the request
# order, which halves how much the exit mix moves from seed to seed.
SERVE_POOL = 800
TAIL_SAMPLES = 10
RATE_WINDOW = 50  # consecutive requests per throughput sample

clock = time.perf_counter


def no_span(name):
    return contextlib.nullcontext()


def noise_seed(seed: int) -> int:
    """The workload seed's noise_seed; seed 0 gives the default.

    data_seed stays at its default on purpose: it fixes the task and so the
    trained model. Each model exits a different share of requests at the
    last layer, so with data_seed varied the latency and exit-depth metrics
    would move with the seed rather than with the code.
    """
    if seed < 0:
        raise ValueError(f"workload seed must be nonnegative, got {seed}")
    return 107 + 1000 * seed


def pipeline_config(seed: int) -> pipeline.RunConfig:
    """A quarter of the default sequences and training steps."""
    return replace(
        pipeline.default_config(),
        num_train=500,
        num_eval=150,
        teacher_steps=300,
        branch_steps=1000,
        downstream_steps=375,
        noise_seed=noise_seed(seed),
    )


def serve_config(seed: int) -> pipeline.RunConfig:
    """A sixteenth of the default training, so that set-up can be repeated in a run."""
    return replace(
        pipeline.default_config(),
        num_train=125,
        num_eval=SERVE_POOL,
        teacher_steps=75,
        branch_steps=250,
        downstream_steps=94,
        noise_seed=noise_seed(seed),
    )


def tail_percentile(samples, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    if len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- serving


@dataclass(frozen=True)
class Model:
    """What a server holds after loading the checkpoint and the policy."""

    enc: object
    branches: object
    policy: object
    head: object
    renormalize: bool

    @property
    def num_layers(self) -> int:
        return self.enc.config.num_layers


def load_model(checkpoint: Path, policy_file: Path, renormalize: bool) -> Model:
    ck = serialize.load_checkpoint(checkpoint)
    return Model(
        enc=ck.encoder,
        branches=ck.branches,
        policy=policy.load_policy(policy_file),
        head=ck.downstream,
        renormalize=renormalize,
    )


def train_serve_model(cfg, workdir: Path, span=no_span):
    """Synthesize, train every stage, save, and load back what serving uses.

    Returns the loaded model, the request pool, and the SHA-256 of
    checkpoint and policy. The pool is the held-out split with the
    compare-static noise mixture. Set-up phases are labelled with the
    pipeline's stage names.
    """
    with span("stage.synth"):
        full = data.synth_dataset(cfg.dataset_spec())
        train = full.subset(range(cfg.num_train))
        pool = full.subset(range(cfg.num_train, cfg.num_train + cfg.num_eval))
        requests = data.make_mixture(pool, cfg.mixture_spec(), cfg.noise_seed + 1)
    enc = encoder.init_encoder(cfg.encoder_config())
    with span("stage.teacher"):
        head = teacher.train_teacher(
            enc, train, lr=cfg.teacher_lr, steps=cfg.teacher_steps,
            seed=cfg.teacher_seed, batch_size=cfg.teacher_batch,
        ).head
    with span("stage.branches"):
        exits = branches.train_branches(
            enc, head, train, lr=cfg.branch_lr, batch_size=cfg.branch_batch,
            steps=cfg.branch_steps, seed=cfg.branch_seed,
        ).branches
    with span("stage.calibrate"):
        exit_policy = policy.calibrate(branches.entropy_profile(enc, exits, train), cfg.ratio)
    with span("stage.downstream"):
        downstream = probe.train_downstream(
            enc, exits, exit_policy,
            probe.init_downstream_head(cfg.num_layers, train.num_classes, cfg.model_dim,
                                       cfg.head_seed),
            train, lr=cfg.downstream_lr, steps=cfg.downstream_steps,
            seed=cfg.downstream_seed, batch_size=cfg.downstream_batch,
            task=cfg.task, renormalize=cfg.renormalize,
        ).head
    with span("stage.checkpoint"):
        workdir.mkdir(parents=True, exist_ok=True)
        checkpoint, policy_file = workdir / "checkpoint.bin", workdir / "policy.txt"
        serialize.save_checkpoint(
            serialize.Checkpoint(encoder=enc, teacher=head, branches=exits, downstream=downstream),
            checkpoint,
        )
        policy.save_policy(exit_policy, policy_file)
        model = load_model(checkpoint, policy_file, cfg.renormalize)
    return model, requests, digest(checkpoint) + digest(policy_file)


def predict(head, feats: np.ndarray) -> np.ndarray:
    """The probe's per-frame argmax, with the arithmetic of probe.evaluate."""
    logits = np.matmul(feats, head.probe_weight.T.astype(np.float64)) + head.probe_bias.astype(
        np.float64
    )
    return logits.argmax(axis=1)


def answer_adaptive(model: Model, frames: np.ndarray):
    hs, trace = policy.run_exit(model.enc, model.branches, model.policy, frames)
    prefix = probe.normalize_prefix(hs, trace.exit_layer)
    return trace.exit_layer, predict(model.head, probe.weighted_features(
        model.head, prefix, model.renormalize))


def answer_full(model: Model, frames: np.ndarray):
    depth = model.num_layers
    hs = encoder.forward_all(model.enc, frames)
    prefix = probe.normalize_prefix(hs, depth)
    return depth, predict(model.head, probe.weighted_features(
        model.head, prefix, model.renormalize))


@dataclass
class Served:
    """Per-request record of one closed-loop run."""

    order: list[int]  # pool index of each request
    latency: list[float]  # seconds
    done: list[float]  # seconds from the first request sent to this answer
    exits: list[int]  # exit layer, 0 for a failed request
    preds: list[np.ndarray | None]
    errors: list[str]
    wall: float  # seconds from the first request sent to the last answer

    @property
    def count(self) -> int:
        return len(self.order)


def concat(runs: list[Served]) -> Served:
    """Several closed-loop runs as one, back to back; the wall time is their sum."""
    offsets = np.cumsum([0.0] + [s.wall for s in runs])
    return Served(
        order=[i for s in runs for i in s.order],
        latency=[t for s in runs for t in s.latency],
        done=[offset + t for s, offset in zip(runs, offsets) for t in s.done],
        exits=[e for s in runs for e in s.exits],
        preds=[p for s in runs for p in s.preds],
        errors=[e for s in runs for e in s.errors],
        wall=sum(s.wall for s in runs),
    )


def request_order(seed: int, pool: int):
    """Endless request stream: a fresh seeded permutation of the pool per pass."""
    rng = np.random.default_rng([seed, pool])
    while True:
        yield from (int(i) for i in rng.permutation(pool))


def serve(model, answer, inputs, order, stop, span=no_span) -> Served:
    """One client, closed loop: the next request goes out when the previous returns.

    `stop(requests_done, seconds_elapsed)` ends the loop after a request.
    A request that raises is recorded as failed and the loop goes on.
    """
    served = Served([], [], [], [], [], [], 0.0)
    begin = clock()
    while True:
        i = next(order)
        t0 = clock()
        try:
            with span("request"):
                exit_layer, pred = answer(model, inputs[i])
        except Exception as err:  # a served request fails alone; the run continues
            exit_layer, pred = 0, None
            served.errors.append(f"request {served.count} (pool {i}): {err!r}")
        t1 = clock()
        served.order.append(i)
        served.latency.append(t1 - t0)
        served.done.append(t1 - begin)
        served.exits.append(exit_layer)
        served.preds.append(pred)
        if stop(served.count, t1 - begin):
            served.wall = t1 - begin
            return served


def timed_stop(seconds: float, min_requests: int = math.ceil(MIN_REQUESTS / SEGMENTS)):
    return lambda done, elapsed: elapsed >= seconds and done >= min_requests


def count_stop(count: int):
    return lambda done, elapsed: done >= count


def reference_answers(model: Model, inputs, full_depth: bool):
    """Per pool item, the exit layer and predictions from an independent full pass.

    The exit is the brute-force oracle: decide_exit over the entropies of
    every layer of a forward_all pass. By the prefix property the features
    at that exit equal those of a truncated pass bit for bit.
    """
    exits, preds = [], []
    for frames in inputs:
        hs = encoder.forward_all(model.enc, frames)
        if full_depth:
            layer = model.num_layers
        else:
            entropies = [
                branches.branch_entropy(model.branches, hs, k)
                for k in range(1, model.num_layers + 1)
            ]
            layer = policy.decide_exit(model.policy, lambda k: entropies[k - 1]).exit_layer
        feats = probe.weighted_features(
            model.head, probe.normalize_prefix(hs, layer), model.renormalize)
        exits.append(layer)
        preds.append(predict(model.head, feats))
    return np.array(exits, dtype=np.int64), preds


def check_requests(served: Served, ref_exits, ref_preds) -> np.ndarray:
    """Mask of requests whose answer is wrong: failed, off-oracle exit, or other predictions."""
    bad = np.zeros(served.count, dtype=bool)
    for n, (i, layer, pred) in enumerate(zip(served.order, served.exits, served.preds)):
        bad[n] = pred is None or layer != ref_exits[i] or not np.array_equal(pred, ref_preds[i])
    return bad


def pool_answers(model, answer, inputs, served: Served):
    """Exit and predictions per pool item, from the first time it was served.

    Items the timed loop never reached are served now, untimed, so the
    accuracy always covers the whole pool.
    """
    first = {}
    for i, layer, pred in zip(served.order, served.exits, served.preds):
        if i not in first and pred is not None:
            first[i] = (layer, pred)
    for i in range(len(inputs)):
        if i not in first:
            first[i] = answer(model, inputs[i])
    exits = np.array([first[i][0] for i in range(len(inputs))], dtype=np.int64)
    return exits, [first[i][1] for i in range(len(inputs))]


def accuracy(preds, labels) -> float:
    correct = sum(int((p == y).sum()) for p, y in zip(preds, labels))
    return correct / sum(int(y.shape[0]) for y in labels)


def window_seconds(done: list[float], window: int = RATE_WINDOW) -> list[float]:
    """Seconds taken by each run of `window` consecutive requests of one segment."""
    return [done[k + window] - done[k] for k in range(0, len(done) - window, window)]


def sustained_rate(segments: list[Served], window: int = RATE_WINDOW) -> float | None:
    """Requests per second that nine in ten windows of the timed segments reach or beat.

    None when fewer than ten windows lie beyond the slowest tenth.
    """
    slow = tail_percentile([t for s in segments for t in window_seconds(s.done, window)], 90)
    return None if slow is None else window / slow


def latency_metrics(segments: list[Served], pool_size: int) -> dict:
    """Latency and throughput over the requests of every timed segment.

    `seq_per_s` is the sustained rate, and `wall_s` the time to serve the
    pool once at that rate. On a shared host whose speed flips between a
    fast and a slow state, the share of time spent fast drifts from run to
    run, and a mean or median rate follows that share; the slowest tenth
    of the windows stays in the slow state. The mean rate is reported
    ungated.
    """
    timed = concat(segments)
    ms = [1e3 * t for t in timed.latency]
    rate = sustained_rate(segments)
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": tail_percentile(ms, 90),
        "latency_p99_ms": tail_percentile(ms, 99),
        "mean_seq_per_s": timed.count / timed.wall,
        "seq_per_s": rate,
        "wall_s": None if rate is None else pool_size / rate,
    }


def layer_metrics(tracer, work: bool) -> dict:
    """Per-layer metrics of a traced run; `work` limits serving metrics to served requests."""
    spans = tracer.spans()
    return tracing.layer_metrics(
        spans, tracer.missing, tracing.work_mask(spans) if work else None)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What a workload run reports; run.py prints it."""

    attempted: int
    failed: int
    checks: dict  # check name -> passed
    metrics: dict  # metric name -> value, None when it could not be measured
    info: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def _serve_checks(model, inputs, labels, served_runs, full_depth, expected, answer):
    """Check every request, then the pool aggregates against `expected`."""
    ref_exits, ref_preds = reference_answers(model, inputs, full_depth)
    bad = sum(int(check_requests(s, ref_exits, ref_preds).sum()) for s in served_runs)
    exits, preds = pool_answers(model, answer, inputs, served_runs[0])
    acc, mean_exit = accuracy(preds, labels), float(exits.mean())
    checks = {
        "requests_match_reference": bad == 0,
        "accuracy_matches_evaluate": acc == expected["accuracy"],
        "mean_exit_matches_evaluate": mean_exit == expected["mean_exit_layer"],
    }
    return bad, checks, acc, mean_exit


def run_serve(workload: str, seed: int, seconds: float, tracer, workdir: Path,
              import_s: float) -> Outcome:
    """serve_mixture (adaptive exit) or serve_full (fixed depth L) on one client.

    Untraced, the run sets up SEGMENTS times and serves one timed segment
    after each set-up, so the measurement is spread over the whole run
    rather than over a few seconds of a machine whose speed drifts.
    Traced, it sets up once and serves the same chunks of requests untraced
    and traced in turn, which gives the tracing overhead.
    """
    full_depth = workload == "serve_full"
    answer = answer_full if full_depth else answer_adaptive
    cfg = serve_config(seed)
    order = request_order(seed, SERVE_POOL)
    setups, digests, runs = [], set(), []
    for rep in range(1 if tracer else SEGMENTS):
        t0 = clock()
        with tracer.installed() if tracer else contextlib.nullcontext():
            model, requests, ck_digest = train_serve_model(
                cfg, workdir / f"setup{rep}", tracer.span if tracer else no_span)
        inputs, labels = requests.inputs, requests.labels
        serve(model, answer, inputs, order, count_stop(WARMUP_REQUESTS))
        setups.append(clock() - t0)
        digests.add(ck_digest)
        if not tracer:
            runs.append(serve(model, answer, inputs, order, timed_stop(seconds / SEGMENTS)))
    if tracer:
        runs = paired_runs(model, answer, inputs, order, seconds, tracer)
    if full_depth:
        expected = probe.evaluate_static(model.enc, model.head, requests, model.num_layers,
                                         task=cfg.task, renormalize=cfg.renormalize)
    else:
        expected = probe.evaluate(model.enc, model.branches, model.policy, model.head,
                                  requests, task=cfg.task, renormalize=cfg.renormalize)
    bad, checks, acc, mean_exit = _serve_checks(
        model, inputs, labels, runs, full_depth, expected, answer)
    checks["setups_identical"] = len(digests) == 1
    if tracer:
        untraced, traced = runs
        metrics = layer_metrics(tracer, work=True)
        metrics["trace.overhead_frac"] = (traced.wall - untraced.wall) / untraced.wall
        exits = sum(traced.exits)
        checks["traced_blocks_equal_exit_layers"] = metrics["encoder.blocks"] in (exits, None)
        checks["traced_branch_evals_expected"] = metrics["branches.evals"] in (
            0 if full_depth else exits, None)
    else:
        metrics = {
            **latency_metrics(runs, len(inputs)),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "accuracy": acc,
            "mean_exit_layer": mean_exit,
        }
    errors = [e for s in runs for e in s.errors]
    return Outcome(
        attempted=sum(s.count for s in runs),
        failed=bad,
        checks=checks,
        metrics=metrics,
        info={
            "config": {"data_seed": cfg.data_seed, "noise_seed": cfg.noise_seed,
                       "num_train": cfg.num_train, "pool": len(inputs)},
            "setup_runs_s": setups,
            "requests_per_run": [s.count for s in runs],
            "errors": errors[:5],
        },
    )


def paired_runs(model, answer, inputs, order, seconds, tracer, chunk=50):
    """(untraced, traced): each chunk of requests served untraced, then traced."""
    untraced, traced = [], []
    while sum(s.wall for s in untraced + traced) < seconds:
        requests = [next(order) for _ in range(chunk)]
        untraced.append(serve(model, answer, inputs, iter(requests), count_stop(chunk)))
        with tracer.installed():
            traced.append(serve(model, answer, inputs, iter(requests), count_stop(chunk),
                                tracer.span))
    return [concat(untraced), concat(traced)]


# ---------------------------------------------------------------- pipeline


def expected_artifacts(cfg) -> list[str]:
    """Every file the pipeline writes, relative to its artifacts directory."""
    names = [
        "config.ini", "train_data.bin", "eval_data.bin", "checkpoint.bin",
        "teacher_loss.csv", "branch_loss.csv", "entropy_profile_heldout.csv",
        "entropy_profile_train.csv", "policy.txt", "span_stats.json",
        "exit_traces_train.csv", "downstream_loss.csv", "metrics/eval_summary.json",
        "exit_distribution.csv", "exit_summary.csv", "comparison.csv", "comparison.json",
        "timing.json",
    ]
    names += [
        f"metrics/eval_{strategy}_ratio{ratio:g}.json"
        for ratio in cfg.eval_ratios for strategy in cfg.strategies
    ]
    return names


def _parse_artifact(root: Path, name: str):
    path = root / name
    if name.endswith(".json"):
        return json.loads(path.read_text())
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(path.read_text())))
        if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError(f"{name}: no data rows or ragged rows")
        return rows
    if name == "config.ini":
        return pipeline.load_config(path)
    if name == "policy.txt":
        return policy.load_policy(path)
    if name == "checkpoint.bin":
        return serialize.load_checkpoint(path)
    return serialize.load_dataset(path)


def check_artifacts(root: Path, cfg) -> tuple[list[str], dict]:
    """Problems with the artifacts (none when all exist and parse), and their SHA-256.

    Each evaluation that produced a record rather than an error must also
    have written its exit histogram. Every file but timing.json is
    deterministic, so its digest compares two commits byte for byte.
    """
    problems = []
    names = expected_artifacts(cfg)
    for name in names:  # grows by the histograms the evaluations imply
        try:
            parsed = _parse_artifact(root, name)
        except FileNotFoundError:
            problems.append(f"missing {name}")
            continue
        except (OSError, ValueError) as err:
            problems.append(f"unparsable {name}: {err}")
            continue
        if name == "config.ini" and parsed != cfg:
            problems.append("config.ini differs from the run's config")
        if name.startswith("metrics/eval_") and name != "metrics/eval_summary.json":
            if "error" not in parsed:
                names.append(name.replace("/eval_", "/exit_hist_").replace(".json", ".csv"))
    written = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    digests = {name: digest(root / name) for name in written if name != "timing.json"}
    return problems, digests


def _run_pipeline(cfg, root: Path) -> float:
    t0 = clock()
    with contextlib.redirect_stdout(sys.stderr):
        pipeline.run_pipeline(cfg, root)
    return clock() - t0


def run_pipeline_workload(seed: int, seconds: float, tracer, workdir: Path,
                          import_s: float) -> Outcome:
    """The reduced-scale pipeline from an empty artifacts directory.

    Untraced, the run then serves the held-out split closed-loop from the
    artifacts the pipeline wrote, the way a user deploys what it trained.
    Traced, it runs the pipeline a second time with tracing on instead.
    """
    t0 = clock()
    cfg = pipeline_config(seed)
    root = workdir / "artifacts"
    setup_s = import_s + clock() - t0
    wall = _run_pipeline(cfg, root)
    problems, digests = check_artifacts(root, cfg)
    summary = json.loads((root / "metrics" / "eval_summary.json").read_text())
    record = summary[f"unconstrained_ratio{cfg.ratio:g}"]
    checks = {"artifacts_complete": not problems}
    info = {
        "config": {"data_seed": cfg.data_seed, "noise_seed": cfg.noise_seed,
                   "num_train": cfg.num_train, "num_eval": cfg.num_eval},
        "artifact_problems": problems,
        "artifacts_sha256": digests,
    }
    metrics = {
        "wall_s": wall,
        "setup_s": setup_s,
        "accuracy": record["accuracy"],
        "mean_exit_layer": record["mean_exit_layer"],
    }
    if tracer:
        with tracer.installed():
            traced = _run_pipeline(cfg, workdir / "traced")
        traced_problems, traced_digests = check_artifacts(workdir / "traced", cfg)
        checks["traced_artifacts_identical"] = not traced_problems and traced_digests == digests
        metrics.update(layer_metrics(tracer, work=False))
        metrics["trace.overhead_frac"] = (traced - wall) / wall
        return Outcome(2, 0, checks, metrics, info)

    model = load_model(root / "checkpoint.bin", root / "policy.txt", cfg.renormalize)
    heldout = serialize.load_dataset(root / "eval_data.bin")
    order = request_order(seed, heldout.num_sequences)
    serve(model, answer_adaptive, heldout.inputs, order, count_stop(WARMUP_REQUESTS))
    segments = [
        serve(model, answer_adaptive, heldout.inputs, order, timed_stop(seconds / SEGMENTS))
        for _ in range(SEGMENTS)
    ]
    bad, serve_checks, acc, mean_exit = _serve_checks(
        model, heldout.inputs, heldout.labels, segments, False, record, answer_adaptive)
    checks.update(serve_checks)
    latency = latency_metrics(segments, heldout.num_sequences)
    del latency["wall_s"]
    metrics.update(latency)
    metrics["peak_rss_mb"] = peak_rss_mb()
    info["requests_per_run"] = [s.count for s in segments]
    return Outcome(1 + sum(s.count for s in segments), bad, checks, metrics, info)
