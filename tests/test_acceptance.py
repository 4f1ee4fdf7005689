"""Acceptance suite: one test per acceptance criterion.

Criteria 1-5 and 9-10 are deterministic property and arithmetic checks.
Criteria 6-8 train the full desk-scale configuration (L=8, d=64, C=32,
2000 training sequences) across three seed families and verify the
entropy-depth trend, noise adaptivity, and the mixed-noise benchmark
against the static baseline. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion report lines.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from adaexit.branches import EntropyProfile, entropy_profile, init_branches
from adaexit.data import make_mixture
from adaexit.encoder import EncoderConfig, IncrementalForward, forward_all, init_encoder
from adaexit.pipeline import (
    ArtifactPaths,
    apply_overrides,
    default_config,
    load_span_stats,
    noise_sweep,
    run_pipeline,
    stage_branches,
    stage_calibrate,
    stage_downstream,
    stage_synth,
    stage_teacher,
)
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
)
from adaexit.probe import evaluate, evaluate_static, normalize_prefix
from adaexit.serialize import (
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    load_checkpoint,
    load_dataset,
)

from conftest import probe_step, sample_entropies

SEED_FAMILIES = (1, 2, 3)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _family_config(family: int):
    return apply_overrides(
        default_config(),
        {
            "data.data_seed": str(family * 100 + 1),
            "encoder.encoder_seed": str(family * 100 + 3),
            "train.train_seed": str(family * 100 + 5),
            "eval.noise_seed": str(family * 100 + 7),
        },
    )


@pytest.fixture(scope="module")
def stage1_runs(tmp_path_factory):
    """Stage-1 training (teacher + branches + profiles) for each seed family."""
    runs = {}
    started = time.perf_counter()
    for family in SEED_FAMILIES:
        cfg = _family_config(family)
        paths = ArtifactPaths(tmp_path_factory.mktemp(f"fam{family}"))
        stage_synth(cfg, paths)
        stage_teacher(cfg, paths)
        stage_branches(cfg, paths)
        stage_calibrate(cfg, paths)
        ck = load_checkpoint(paths.checkpoint)
        heldout = load_dataset(paths.eval_data)
        runs[family] = {
            "cfg": cfg,
            "paths": paths,
            "checkpoint": ck,
            "heldout_profile": entropy_profile(ck.encoder, ck.branches, heldout).layer_means,
        }
    runs["stage1_seconds"] = time.perf_counter() - started
    return runs


@pytest.fixture(scope="module")
def full_run(stage1_runs):
    """Stage 2 on the first seed family, for the mixed-noise benchmark."""
    family = SEED_FAMILIES[0]
    cfg = stage1_runs[family]["cfg"]
    paths = stage1_runs[family]["paths"]
    stage_downstream(cfg, paths)
    return {
        "cfg": cfg,
        "paths": paths,
        "checkpoint": load_checkpoint(paths.checkpoint),
        "policy": load_policy(paths.policy_file),
        "stats": load_span_stats(cfg, paths),
    }


def _random_policy(rng, num_layers, threshold):
    """A random span kind, constrained by random exit counts."""
    counts = rng.integers(0, 6, size=num_layers)
    counts[rng.integers(num_layers)] += 1
    stats = ExitCounts(tuple(counts.tolist()))
    return constrain(
        ExitPolicy(threshold=threshold, ratio=1.0, num_layers=num_layers),
        str(rng.choice(SPAN_KINDS)), stats,
        rate_cutoff=float(rng.uniform(0.01, max(stats.fractions) * 0.99)),
    )


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    started = time.perf_counter()
    mismatches = 0
    trials = 1200
    for _ in range(trials):
        num_layers = int(rng.integers(2, 13))
        entropies = rng.uniform(0.0, 3.5, size=num_layers)
        policy = _random_policy(rng, num_layers, float(rng.uniform(0.0, 3.5)))
        trace = decide_exit(policy, lambda k: entropies[k - 1])
        allowed = policy.allowed
        expected = next((k for k in allowed if entropies[k - 1] < policy.threshold), None)
        forced = expected is None
        expected = allowed[-1] if forced else expected
        if (trace.exit_layer, trace.forced) != (expected, forced):
            mismatches += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"{trials} random (entropy, threshold, span) triples, {mismatches} mismatches, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_ratio_monotonicity():
    rng = np.random.default_rng(20240602)
    violations = 0
    samples = 240
    grid = [round(0.1 * i, 1) for i in range(11)]
    for _ in range(samples):
        num_layers = 8
        entropies = rng.uniform(0.0, 3.5, size=num_layers)
        means = rng.uniform(0.3, 3.4, size=num_layers)
        profile = EntropyProfile.from_layer_means(means)
        exits = []
        for ratio in grid:
            policy = calibrate(profile, ratio)
            exits.append(decide_exit(policy, lambda k: entropies[k - 1]).exit_layer)
        if any(a < b for a, b in zip(exits, exits[1:])):
            violations += 1
    _report(
        2,
        violations == 0,
        f"{samples} samples x ratio grid {{0.0..1.0}}, exit layer non-increasing in "
        f"ratio, {violations} violations",
    )


def test_criterion_3_prefix_correctness():
    enc = init_encoder(EncoderConfig())
    rng = np.random.default_rng(20240603)
    checked = 0
    for _ in range(100):
        x = rng.standard_normal((8, enc.config.input_dim)).astype(np.float32)
        full = forward_all(enc, x)
        for k in range(1, enc.config.num_layers + 1):
            inc = IncrementalForward(enc, x)
            inc.hidden(k)
            part = inc.states()
            assert len(part) == k
            for j in range(1, k + 1):
                if not np.array_equal(part[j - 1], full[j - 1]):
                    _report(3, False, f"prefix mismatch at stop={k} layer={j}")
            checked += 1
    _report(3, True, f"100 random inputs x every stop layer ({checked} truncated passes), "
                     "all prefixes bit-identical to the full pass")


def test_criterion_4_entropy_bounds_and_calibration(stage1_runs):
    family = SEED_FAMILIES[0]
    ck = stage1_runs[family]["checkpoint"]
    paths = stage1_runs[family]["paths"]
    heldout = load_dataset(paths.eval_data)
    limit = math.log(ck.branches.num_classes)
    bad_bounds = 0
    for i in range(60):
        values = sample_entropies(ck.branches, forward_all(ck.encoder, heldout.inputs[i]))
        if (values < 0).any() or (values > limit + 1e-12).any():
            bad_bounds += 1

    zero = init_branches(
        ck.encoder.config.num_layers, ck.branches.num_classes, ck.encoder.config.model_dim
    )
    exact = all(
        e == math.log(ck.branches.num_classes)
        for i in range(5)
        for e in sample_entropies(zero, forward_all(ck.encoder, heldout.inputs[i]))
    )

    triples = [(4.0, 2.0, 1.0), (math.log(32), math.log(32), 0.7), (2.5, 0.5, 0.0),
               (1.0, 0.2, 0.5), (3.0, 1.0, 0.25), (0.9, 0.9, 1.0)]
    worst = 0.0
    for e_max, e_min, ratio in triples:
        means = np.linspace(e_max, e_min, 8)
        policy = calibrate(EntropyProfile.from_layer_means(means), ratio)
        worst = max(worst, abs(policy.threshold - (e_max + e_min) / 2.0 * ratio))
    _report(
        4,
        bad_bounds == 0 and exact and worst < 1e-9,
        f"entropies within [0, ln C] on 60 held-out samples ({bad_bounds} violations); "
        f"zero-init branches at ln C exactly: {exact}; threshold arithmetic worst error "
        f"{worst:.2e} over {len(triples)} triples",
    )


def test_criterion_5_gradient_checks(stage1_runs):
    from adaexit.branches import branch_logits
    from adaexit.numeric import softmax
    from adaexit.probe import DownstreamHead
    from adaexit.teacher import pseudo_labels

    family = SEED_FAMILIES[0]
    ck = stage1_runs[family]["checkpoint"]
    heldout = load_dataset(stage1_runs[family]["paths"].eval_data)
    worst = 0.0
    h = 1e-3

    # Branch loss on a 2-frame toy batch.
    hs = forward_all(ck.encoder, heldout.inputs[0][:2])
    targets = pseudo_labels(ck.teacher, hs[-1])
    k = 3
    weights = ck.branches.weights.copy()
    h_k = hs[k - 1].astype(np.float64)
    probs = softmax(branch_logits(ck.branches, hs[k - 1], k))
    dlogits = probs.copy()
    dlogits[np.arange(2), targets] -= 1.0
    dlogits /= 2
    analytic = dlogits.T @ h_k

    def branch_loss(w):
        from adaexit.branches import BranchSet

        logits = branch_logits(
            BranchSet(weights=w, biases=ck.branches.biases), hs[k - 1], k
        )
        p = softmax(logits)
        return float(-np.log(p[np.arange(2), targets]).mean())

    rng = np.random.default_rng(20240605)
    for _ in range(6):
        c = int(rng.integers(0, ck.branches.num_classes))
        j = int(rng.integers(0, ck.branches.model_dim))
        bumped = weights.copy()
        bumped[k - 1, c, j] += h
        up = branch_loss(bumped)
        bumped[k - 1, c, j] -= 2 * h
        down = branch_loss(bumped)
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(analytic[c, j] - fd) / max(abs(fd), 1e-8))

    # Downstream loss on a 2-sample toy batch.
    head = DownstreamHead(
        layer_weights=rng.standard_normal(8).astype(np.float32),
        probe_weight=(rng.standard_normal((heldout.num_classes, 64)) * 0.2).astype(np.float32),
        probe_bias=np.zeros(heldout.num_classes, dtype=np.float32),
    )
    step = probe_step(
        [normalize_prefix(forward_all(ck.encoder, heldout.inputs[i]), 4) for i in (0, 1)],
        heldout.labels[:2], head,
    )
    batch = np.arange(2)

    def ds_loss(hd):
        return step(hd, batch)[0]

    _, g_lw, g_pw, _ = step(head, batch)
    for idx in range(4):
        lw = head.layer_weights.copy()
        lw[idx] += h
        up = ds_loss(DownstreamHead(lw, head.probe_weight, head.probe_bias))
        lw[idx] -= 2 * h
        down = ds_loss(DownstreamHead(lw, head.probe_weight, head.probe_bias))
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(g_lw[idx] - fd) / max(abs(fd), 1e-8))
    for _ in range(4):
        c = int(rng.integers(0, heldout.num_classes))
        j = int(rng.integers(0, 64))
        pw = head.probe_weight.copy()
        pw[c, j] += h
        up = ds_loss(DownstreamHead(head.layer_weights, pw, head.probe_bias))
        pw[c, j] -= 2 * h
        down = ds_loss(DownstreamHead(head.layer_weights, pw, head.probe_bias))
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(g_pw[c, j] - fd) / max(abs(fd), 1e-8))

    _report(
        5,
        worst < 1e-4,
        f"branch and downstream loss gradients vs central differences (h=1e-3): "
        f"worst relative error {worst:.2e}",
    )


def test_criterion_6_entropy_depth_trend(stage1_runs):
    from scipy.stats import spearmanr

    details = []
    ok = True
    for family in SEED_FAMILIES:
        profile = stage1_runs[family]["heldout_profile"]
        corr = float(spearmanr(np.arange(1, len(profile) + 1), profile).statistic)
        deeper_lower = profile[-1] < profile[0]
        ok = ok and deeper_lower and corr <= -0.7
        details.append(f"seed{family}: E[L]={profile[-1]:.3f} < E[1]={profile[0]:.3f} "
                       f"({deeper_lower}), spearman={corr:+.3f}")
    elapsed = stage1_runs["stage1_seconds"]
    ok = ok and elapsed < 15 * 60
    _report(6, ok, "; ".join(details) + f"; stage-1 training for 3 seeds took {elapsed:.0f}s")


def test_criterion_7_noise_adaptivity(stage1_runs):
    passing = 0
    details = []
    for family in SEED_FAMILIES:
        cfg = stage1_runs[family]["cfg"]
        paths = stage1_runs[family]["paths"]
        rows = noise_sweep(replace(cfg, sweep_ratio=0.7), paths)
        means = [row["mean_exit_layer"] for row in rows]  # clean, 10, 5, 0
        monotone = all(a <= b for a, b in zip(means, means[1:]))
        delta = means[-1] - means[0]
        good = monotone and delta >= 0.5
        passing += int(good)
        details.append(
            f"seed{family}: exits {['%.2f' % m for m in means]} monotone={monotone} "
            f"delta={delta:+.2f} {'ok' if good else 'MISS'}"
        )
    _report(
        7,
        passing >= 2,
        f"ratio 0.7 over (clean, 10dB, 5dB, 0dB): {passing}/3 seeds satisfy "
        "monotone ordering with >= 0.5 layer increase; " + "; ".join(details),
    )


def test_criterion_8_mixed_noise_benchmark(full_run):
    cfg = full_run["cfg"]
    ck = full_run["checkpoint"]
    heldout = load_dataset(full_run["paths"].eval_data)
    mixed = make_mixture(heldout, cfg.mixture_spec(), cfg.noise_seed + 1)

    mean_policy = constrain(full_run["policy"], "mean", full_run["stats"])
    dynamic = evaluate(ck.encoder, ck.branches, mean_policy, ck.downstream, mixed)
    matched = round(dynamic["mean_exit_layer"])
    static = evaluate_static(ck.encoder, ck.downstream, mixed, matched)
    beats = dynamic["accuracy"] >= static["accuracy"]

    pinned = evaluate(
        ck.encoder, ck.branches, fixed_exit_policy(cfg.static_layer, cfg.num_layers),
        ck.downstream, mixed,
    )
    static_twin = evaluate_static(ck.encoder, ck.downstream, mixed, cfg.static_layer)
    exact = pinned["accuracy"] == static_twin["accuracy"]

    _report(
        8,
        beats and exact,
        f"40/30/20/10 mixture: dynamic mean-span accuracy {dynamic['accuracy']:.4f} "
        f"(mean exit {dynamic['mean_exit_layer']:.2f}) vs static-{matched} "
        f"{static['accuracy']:.4f} (margin {dynamic['accuracy'] - static['accuracy']:+.4f}); "
        f"constant-layer policy == static-{cfg.static_layer} baseline exactly: {exact}",
    )


def test_criterion_9_compute_accounting(stage1_runs):
    family = SEED_FAMILIES[0]
    ck = stage1_runs[family]["checkpoint"]
    paths = stage1_runs[family]["paths"]
    heldout = load_dataset(paths.eval_data)
    subset = heldout.subset(range(24))
    num_layers = ck.encoder.config.num_layers

    # Constructed pattern: everyone at L/2 must save exactly half.
    from adaexit.probe import init_downstream_head

    head = init_downstream_head(num_layers, heldout.num_classes, ck.encoder.config.model_dim, 0)
    half = evaluate(
        ck.encoder, ck.branches, fixed_exit_policy(num_layers // 2, num_layers), head, subset
    )
    exact_half = half["layer_compute_saved"] == 0.5

    # Constructed pattern at layers {2,4,6,8}: saved = 1 - 20/32.
    exits = []
    for layer in (2, 4, 6, 8):
        trace = run_exit(
            ck.encoder, ck.branches, fixed_exit_policy(layer, num_layers), subset.inputs[0]
        )[1]
        exits.append(trace.exit_layer)
    pattern_saved = 1.0 - sum(exits) / (len(exits) * num_layers)
    exact_pattern = pattern_saved == 0.375

    # Instrumented counter: no layer beyond the exit is ever computed.
    policy = load_policy(paths.policy_file)
    overruns = 0
    for i in range(40):
        hs, trace = run_exit(ck.encoder, ck.branches, policy, heldout.inputs[i])
        if len(hs) != trace.exit_layer:
            overruns += 1
    _report(
        9,
        exact_half and exact_pattern and overruns == 0,
        f"all-at-L/2 saves exactly 0.5: {exact_half}; pattern {{2,4,6,8}} saves "
        f"{pattern_saved} (= 0.375): {exact_pattern}; instrumented layer counters: "
        f"{overruns} overruns in 40 exits",
    )


def test_criterion_10_determinism_and_serialization(full_run, tmp_path_factory):
    cfg = apply_overrides(
        default_config(),
        {
            "data.num_train": "60",
            "data.num_eval": "30",
            "data.frames": "12",
            "teacher.teacher_steps": "60",
            "branches.branch_steps": "80",
            "downstream.downstream_steps": "50",
        },
    )
    root = tmp_path_factory.mktemp("determinism")
    a = run_pipeline(cfg, root / "a")
    b = run_pipeline(cfg, root / "b")
    metric_files = sorted(p.name for p in a.metrics_dir.glob("*.json"))
    identical = all(
        (a.metrics_dir / name).read_bytes() == (b.metrics_dir / name).read_bytes()
        for name in metric_files
    )

    ck = full_run["checkpoint"]
    restored = checkpoint_from_bytes(checkpoint_to_bytes(ck))
    round_trip = (
        all(
            np.array_equal(x, y)
            for x, y in zip(ck.encoder.parameter_arrays(), restored.encoder.parameter_arrays())
        )
        and np.array_equal(ck.teacher.weight, restored.teacher.weight)
        and np.array_equal(ck.branches.weights, restored.branches.weights)
        and np.array_equal(ck.downstream.probe_weight, restored.downstream.probe_weight)
        and checkpoint_to_bytes(ck) == checkpoint_to_bytes(restored)
    )
    _report(
        10,
        identical and round_trip,
        f"pipeline rerun: {len(metric_files)} metric JSONs byte-identical: {identical}; "
        f"full checkpoint round-trips bit-exactly: {round_trip}",
    )
