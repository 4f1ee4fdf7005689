from __future__ import annotations

import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adaexit import branches as branches_module
from adaexit import encoder, pipeline, probe
from adaexit.branches import BranchSet, batch_entropies, entropy_profile, entropy_table
from adaexit.cli import build_parser, main
from adaexit.data import NoiseSpec, add_noise
from adaexit.encoder import hidden_state_cache, init_encoder, parameter_digest
from adaexit.errors import ConfigError, DependencyError, FormatError
from adaexit.pipeline import (
    ARTIFACTS,
    ArtifactPaths,
    Memo,
    _read_profile,
    _write_profile,
    apply_overrides,
    compare_static,
    default_config,
    load_config,
    load_span_stats,
    noise_sweep,
    run_pipeline,
    save_config,
    stage_branches,
    stage_calibrate,
    stage_downstream,
    stage_eval,
    stage_teacher,
    stages,
)
from adaexit.policy import (
    ExitCounts,
    calibrate,
    constrain,
    decide_exit,
    decide_exits,
    fixed_exit_policy,
    load_policy,
)
from adaexit.probe import (
    TASKS,
    build_layer_table,
    evaluate,
    evaluate_static,
    init_downstream_head,
    replay_evaluate,
    train_downstream,
)
from adaexit.serialize import load_checkpoint, load_dataset, save_checkpoint

from conftest import assert_served_exits

TINY = {
    "data.num_train": "60",
    "data.num_eval": "30",
    "data.frames": "12",
    "teacher.teacher_steps": "60",
    "branches.branch_steps": "80",
    "downstream.downstream_steps": "50",
}


@pytest.fixture(scope="module")
def tiny_cfg():
    return apply_overrides(default_config(), TINY)


@pytest.fixture(scope="module")
def tiny_run(tiny_cfg, tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    return tiny_cfg, run_pipeline(tiny_cfg, root / "run")


def _count_forwards(monkeypatch) -> list[bytes]:
    """The input bytes of every sequence forwarded from now on, by either forward path.

    `IncrementalForward` and the batched forward both embed through
    `encoder._embed`; a batch counts once per sequence.
    """
    forwarded = []
    original = encoder._embed

    def counting(enc, frames, batched):
        x = np.asarray(frames)
        forwarded.extend(seq.tobytes() for seq in (x if batched else x[None]))
        return original(enc, frames, batched)

    monkeypatch.setattr(encoder, "_embed", counting)
    return forwarded


def _assert_rejected(tmp_path, capsys, key, raw, value, pattern):
    """A bad value fails by name in the constructor, overrides, INI file and CLI."""
    section, _, name = key.partition(".")
    with pytest.raises(ConfigError, match=pattern):
        replace(default_config(), **{name: value})
    with pytest.raises(ConfigError, match=pattern):
        apply_overrides(default_config(), {key: raw})
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{name} = {raw}\n")
    with pytest.raises(ConfigError, match=pattern):
        load_config(path)
    code = main(["synth", "--artifacts", str(tmp_path / "run"), "--set", f"{key}={raw}"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert re.search(pattern, record["message"])
    assert not (tmp_path / "run").exists()


DEFAULT_CONFIG_INI = """\
[data]
num_train = 2000
num_eval = 600
frames = 32
input_dim = 16
num_classes = 32
context_window = 9
markov_self_prob = 0.85
jitter_std = 1.0
data_seed = 101

[encoder]
num_layers = 8
model_dim = 64
num_heads = 4
ffn_dim = 128
max_frames = 64
encoder_seed = 103

[teacher]
teacher_lr = 0.5
teacher_steps = 1200
teacher_batch = 32

[branches]
branch_lr = 0.05
branch_steps = 4000
branch_batch = 32

[policy]
ratio = 1.0
rate_cutoff = 0.15

[downstream]
downstream_lr = 0.5
downstream_steps = 1500
downstream_batch = 32
task = frame
renormalize = true

[train]
train_seed = 105

[eval]
strategies = unconstrained,mean,threshold,minmax
eval_ratios = 1.0,0.7
snr_levels = 10.0,5.0,0.0
sweep_ratio = 0.7
mixture_fractions = 0.4,0.3,0.2,0.1
static_layer = 4
noise_kind = gaussian
noise_seed = 107
"""


class TestConfig:
    def test_ini_round_trip(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "config.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_saved_default_config_is_this_text(self, tmp_path):
        # The layout of config.ini, written out independently of RunConfig.
        path = tmp_path / "config.ini"
        save_config(default_config(), path)
        assert path.read_text() == DEFAULT_CONFIG_INI

    def test_overrides_win(self):
        cfg = apply_overrides(default_config(), {"policy.ratio": "0.5"})
        assert cfg.ratio == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), {"policy.bogus": "1"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_tuple_fields_parse(self):
        cfg = apply_overrides(
            default_config(),
            {"eval.snr_levels": "15,7.5,0", "eval.mixture_fractions": "0.25,0.25,0.25,0.25"},
        )
        assert cfg.snr_levels == (15.0, 7.5, 0.0)

    def test_mixture_fraction_count_validated(self):
        message = (
            r"^mixture_fractions must hold one fraction for clean plus one per snr_levels "
            r"entry, got {} fractions for {} snr_levels$"
        )
        with pytest.raises(ConfigError, match=message.format(2, 3)):
            apply_overrides(default_config(), {"eval.mixture_fractions": "0.5,0.5"})
        with pytest.raises(ConfigError, match=message.format(4, 1)):
            apply_overrides(default_config(), {"eval.snr_levels": "5"})

    @pytest.mark.parametrize(
        "key, raw, value, field",
        [
            ("eval.strategies", "unconstrained,bogus", ("unconstrained", "bogus"), "strategies"),
            ("eval.eval_ratios", "1.0,1.5", (1.0, 1.5), "eval_ratios"),
            ("eval.eval_ratios", "-0.1", (-0.1,), "eval_ratios"),
            # Both print as ratio0.7, so one eval record would overwrite the other.
            ("eval.eval_ratios", "0.7,0.7000001", (0.7, 0.7000001), "eval_ratios"),
            ("eval.strategies", "mean,mean", ("mean", "mean"), "strategies"),
            ("eval.sweep_ratio", "1.5", 1.5, "sweep_ratio"),
            ("eval.sweep_ratio", "nan", float("nan"), "sweep_ratio"),
            ("policy.ratio", "-0.5", -0.5, "ratio"),
            ("policy.rate_cutoff", "0.0", 0.0, "rate_cutoff"),
            ("policy.rate_cutoff", "1", 1.0, "rate_cutoff"),
            ("downstream.task", "frames", "frames", "task"),
            ("eval.noise_kind", "pink", "pink", "noise kind"),
            ("eval.noise_seed", "-1", -1, "seed"),
            ("eval.snr_levels", "10,nan,0", (10.0, float("nan"), 0.0), "snr_db"),
            ("eval.mixture_fractions", "0.6,0.3,0.2,-0.1", (0.6, 0.3, 0.2, -0.1),
             "mixture fractions"),
            ("eval.mixture_fractions", "0.4,0.3,0.2,0.2", (0.4, 0.3, 0.2, 0.2),
             "mixture fractions"),
            ("eval.mixture_fractions", "0.4,0.3,0.2,nan", (0.4, 0.3, 0.2, float("nan")),
             "mixture fractions"),
            ("data.num_train", "0", 0, "num_train"),
            ("data.num_eval", "0", 0, "num_eval"),
            ("data.frames", "65", 65, "frames"),
            ("data.context_window", "4", 4, "context_window"),
            ("data.data_seed", "-1", -1, "seed"),
            ("encoder.encoder_seed", "-1", -1, "seed"),
            ("encoder.ffn_dim", "0", 0, "ffn_dim"),
            ("teacher.teacher_batch", "0", 0, "teacher_batch"),
            ("branches.branch_batch", "0", 0, "branch_batch"),
            ("downstream.downstream_batch", "-3", -3, "downstream_batch"),
            ("teacher.teacher_steps", "-1", -1, "teacher_steps"),
            ("branches.branch_steps", "-1", -1, "branch_steps"),
            ("downstream.downstream_steps", "-1", -1, "downstream_steps"),
            ("teacher.teacher_lr", "-0.5", -0.5, "teacher_lr"),
            ("branches.branch_lr", "nan", float("nan"), "branch_lr"),
            ("downstream.downstream_lr", "inf", float("inf"), "downstream_lr"),
            # Used to pass the config check and fail inside train-teacher as non-finite input.
            ("data.jitter_std", "nan", float("nan"), "jitter_std"),
            ("data.jitter_std", "inf", float("inf"), "jitter_std"),
            # Used to fail in a training stage's generator, without naming the key.
            ("train.train_seed", "-2", -2, "train_seed"),
            ("train.train_seed", "-1", -1, "train_seed"),
        ],
    )
    def test_bad_eval_values_rejected_by_name(self, tmp_path, capsys, key, raw, value, field):
        _assert_rejected(tmp_path, capsys, key, raw, value, f"^{field} must")

    def test_encoder_shape_rejected_up_front(self, tmp_path, capsys):
        # Used to pass the config check and fail in train-teacher, after synth.
        _assert_rejected(tmp_path, capsys, "encoder.num_heads", "3", 3, "num_heads 3")

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("data.num_train", "abc", "cannot parse int num_train from 'abc'"),
            ("encoder.num_layers", "8.0", "cannot parse int num_layers from '8.0'"),
            ("data.jitter_std", "wide", "cannot parse float jitter_std from 'wide'"),
            ("eval.snr_levels", "10,x,0",
             "cannot parse tuple[float, ...] snr_levels from '10,x,0'"),
            ("downstream.renormalize", "maybe", "cannot parse boolean renormalize from 'maybe'"),
        ],
    )
    def test_unparsable_value_named_by_key(self, tmp_path, capsys, key, raw, message):
        section, _, name = key.partition(".")
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{name} = {raw}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        code = main(["synth", "--artifacts", str(tmp_path / "run"), "--set", f"{key}={raw}"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[data]\nnum_train = 10\nnum_train = 20\n",
             r"bad\.ini'.*option 'num_train' in section 'data' already exists"),
            ("num_train = 10\n", r"no section headers.*bad\.ini'"),
        ],
        ids=["repeated-key", "no-section"],
    )
    def test_malformed_ini_gives_json_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        code = main(["synth", "--config", str(path), "--artifacts", str(tmp_path / "run")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert re.search(message, record["message"], re.S)
        assert not (tmp_path / "run").exists()

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[dta]\nnum_train = 10\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[dta\]"):
            load_config(path)

    def test_edge_ratios_accepted(self):
        cfg = apply_overrides(
            default_config(),
            {"eval.eval_ratios": "0,1", "eval.sweep_ratio": "0", "policy.ratio": "1"},
        )
        assert cfg.eval_ratios == (0.0, 1.0)


class TestStages:
    def test_artifacts_exist(self, tiny_run):
        _, paths = tiny_run
        ck = load_checkpoint(paths.checkpoint)
        for name, (file, _) in ARTIFACTS.items():
            assert getattr(paths, name).exists(), name
            if file == ARTIFACTS["checkpoint"][0] and name != "checkpoint":
                assert getattr(ck, name) is not None, name

    def test_artifact_table_matches_written_files(self, tiny_run):
        _, paths = tiny_run
        # Files under metrics/ count as the one metrics_dir entry.
        written = {
            path.relative_to(paths.root).parts[0]
            for path in paths.root.rglob("*")
            if path.is_file()
        }
        assert written == {name for name, _ in ARTIFACTS.values()}
        parser = build_parser()
        for _, stage in ARTIFACTS.values():
            assert parser.parse_args([stage]).command == stage

    def test_eval_metrics_cover_strategies_and_ratios(self, tiny_run):
        cfg, paths = tiny_run
        summary = json.loads((paths.metrics_dir / "eval_summary.json").read_text())
        for strategy in cfg.strategies:
            for ratio in cfg.eval_ratios:
                assert f"{strategy}_ratio{ratio:g}" in summary

    def test_exit_hist_fractions_are_the_eval_record_numbers(self, tiny_run):
        # Each histogram row is the eval JSON's [layer, count, fraction], the
        # fraction written as a plain float, and no artifact holds a numpy repr.
        _, paths = tiny_run
        hists = sorted(paths.metrics_dir.glob("exit_hist_*.csv"))
        assert hists
        for hist in hists:
            record = json.loads(
                hist.with_name(hist.name.replace("exit_hist_", "eval_", 1))
                .with_suffix(".json").read_text()
            )
            lines = hist.read_text().splitlines()
            assert lines[0] == "layer,count,fraction"
            rows = [line.split(",") for line in lines[1:]]
            assert [[int(k), int(c), float(f)] for k, c, f in rows] == record["exit_histogram"]
        for path in paths.root.rglob("*"):
            if path.suffix in (".csv", ".json", ".txt", ".ini"):
                assert "np." not in path.read_text(), path.name

    def test_profile_csv_schema(self, tiny_run):
        _, paths = tiny_run
        lines = paths.profile_heldout.read_text().strip().splitlines()
        assert lines[0] == "layer,mean_entropy"
        assert len(lines) == 1 + 8

    def test_exit_distribution_fractions_sum_to_one(self, tiny_run):
        cfg, paths = tiny_run
        rows = paths.exit_distribution.read_text().strip().splitlines()[1:]
        per_level: dict[str, float] = {}
        for row in rows:
            snr, _, fraction = row.split(",")
            per_level[snr] = per_level.get(snr, 0.0) + float(fraction)
        assert set(per_level) == {"clean", "10", "5", "0"}
        for total in per_level.values():
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_comparison_has_row_per_strategy_and_level(self, tiny_run):
        cfg, paths = tiny_run
        rows = json.loads(paths.comparison_json.read_text())
        combos = {(r["strategy"], r.get("noise_level")) for r in rows if "error" not in r}
        levels = {"all", "clean", "10", "5", "0"}
        for strategy in cfg.strategies:
            if any(r["strategy"] == strategy and "error" in r for r in rows):
                continue
            for level in levels:
                assert (strategy, level) in combos
        assert any(r["strategy"].startswith("static-") for r in rows)

    def test_duplicate_snr_levels_give_identical_rows(self, tiny_run, tmp_path):
        # On a copy: the sweep rewrites exit_distribution.csv and
        # exit_summary.csv, which later tests read from the shared run.
        cfg, paths = tiny_run
        shared = {p: p.read_bytes() for p in paths.root.rglob("*") if p.is_file()}
        copy = ArtifactPaths(shutil.copytree(paths.root, tmp_path / "run"))
        twice = replace(cfg, snr_levels=(5.0, 5.0), mixture_fractions=(0.4, 0.3, 0.3))
        rows = noise_sweep(twice, copy)
        assert rows[1] == rows[2]
        assert {p: p.read_bytes() for p in paths.root.rglob("*") if p.is_file()} == shared

    def test_timing_present(self, tiny_run):
        cfg, paths = tiny_run
        summary = json.loads((paths.metrics_dir / "eval_summary.json").read_text())
        timings = json.loads(paths.timing_file.read_text())
        records = [name for name, record in summary.items() if "error" not in record]
        assert records and sorted(timings) == sorted(records)
        for name in records:
            assert timings[name]["early_exit_seconds"] > 0
            assert timings[name]["full_pass_seconds"] > 0

    def test_report_forwards_once_per_sequence(self, tiny_run, tmp_path, monkeypatch):
        # Each report forwards each sequence of each dataset variant exactly
        # once, and never touches the training split. train-branches forwards
        # each training sequence once (its cache gives the training profile)
        # and no held-out one; calibrate forwards nothing; train-downstream
        # forwards each training sequence once and no held-out one.
        cfg, paths = tiny_run
        paths = ArtifactPaths(shutil.copytree(paths.root, tmp_path / "run"))
        train_inputs = sorted(x.tobytes() for x in load_dataset(paths.train_data).inputs)
        train = set(train_inputs)
        forwarded = _count_forwards(monkeypatch)
        stage_branches(cfg, paths)
        assert sorted(forwarded) == train_inputs
        forwarded.clear()
        stage_calibrate(cfg, paths)
        assert forwarded == []
        stage_downstream(cfg, paths)
        assert sorted(forwarded) == train_inputs
        forwarded.clear()
        n = cfg.num_eval
        for report, expected in (
            (stage_eval, n),
            (noise_sweep, (1 + len(cfg.snr_levels)) * n),
            (compare_static, n),
        ):
            forwarded.clear()
            report(cfg, paths)
            assert len(forwarded) == expected, report.__name__
            assert not train.intersection(forwarded), report.__name__

    @pytest.mark.parametrize("policy_file", ["missing", "other-ratio"])
    def test_downstream_needs_no_policy_file(self, tiny_run, tmp_path, policy_file):
        # train-downstream calibrates its policy from the training profile;
        # policy.txt is an output for serving, not one of its inputs.
        cfg, paths = tiny_run
        copy = ArtifactPaths(shutil.copytree(paths.root, tmp_path / "run"))
        if policy_file == "missing":
            copy.policy_file.unlink()
        else:
            stage_calibrate(replace(cfg, ratio=0.25), copy)
        stage_downstream(cfg, copy)
        for name in ("checkpoint", "span_stats", "exit_traces", "downstream_loss"):
            assert getattr(copy, name).read_bytes() == getattr(paths, name).read_bytes(), name

    def test_span_stats_are_the_histogram_of_the_traces(self, tiny_run):
        cfg, paths = tiny_run
        lines = paths.exit_traces.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == cfg.num_train
        exits = [int(row["exit_layer"]) for row in rows]
        assert load_span_stats(cfg, paths) == ExitCounts.of(exits, cfg.num_layers)

    def test_policy_file_matches_config_ratio(self, tiny_run):
        cfg, paths = tiny_run
        policy = load_policy(paths.policy_file)
        assert policy.ratio == cfg.ratio

    def test_each_stage_runs_on_its_declared_inputs_alone(self, tiny_cfg, tmp_path):
        # The stages run in order in one directory. Before each runs there, a
        # fresh directory gets only the files it declares, as they stand then;
        # run there with no memo, it writes the same bytes. A stage that read
        # an undeclared file, or one no earlier stage writes, fails here.
        shared = ArtifactPaths(tmp_path / "shared")
        done = set()
        for command, (stage, reads) in stages().items():
            assert {ARTIFACTS[name][1] for name in reads} <= done, command
            alone = ArtifactPaths(tmp_path / command)
            alone.root.mkdir()
            for name in reads:
                shutil.copy(getattr(shared, name), getattr(alone, name))
            stage(tiny_cfg, shared)
            stage(tiny_cfg, alone)
            for name, (_, writer) in ARTIFACTS.items():
                assert writer != command or getattr(alone, name).exists(), (command, name)
            for path in alone.root.rglob("*"):
                if path.is_file() and path.name != "timing.json":
                    twin = shared.root / path.relative_to(alone.root)
                    assert path.read_bytes() == twin.read_bytes(), (command, path.name)
            done.add(command)

    def test_noise_sweep_reads_nothing_train_downstream_writes(self):
        # So a scheduler may run the two side by side.
        reads = stages()["noise-sweep"][1]
        assert all(ARTIFACTS[name][1] != "train-downstream" for name in reads)


# Every (command, input) pair that `stages()` declares.
DECLARED = [(command, name) for command, (_, reads) in stages().items() for name in reads]


def _drop(key):
    return lambda raw: raw.pop(key)


def _set(**values):
    return lambda raw: raw.update(values)


# The run has 8 layers.
COUNTS = r'must be \{"exit_counts": \[one count per layer\]\}'
NOT_A_COUNT = "exit counts must be nonnegative integers, got "


class TestStaleInputs:
    """A malformed or stale input fails by file name, before any forward."""

    REPORTS = (stage_eval, noise_sweep, compare_static)

    @pytest.fixture()
    def copy(self, tiny_run, tmp_path):
        cfg, paths = tiny_run
        shutil.copytree(paths.root, tmp_path / "run")
        return cfg, ArtifactPaths(tmp_path / "run")

    @pytest.fixture()
    def forwarded(self, monkeypatch):
        return _count_forwards(monkeypatch)

    @pytest.mark.parametrize("command, name", DECLARED, ids=[f"{c}:{n}" for c, n in DECLARED])
    def test_each_missing_input_names_its_writer_before_any_forward(
        self, copy, forwarded, command, name
    ):
        # A file is removed; a checkpoint section is dropped from the checkpoint.
        cfg, paths = copy
        path = getattr(paths, name)
        if name == "checkpoint" or path != paths.checkpoint:
            path.unlink()
            needs = path.name
        else:
            save_checkpoint(replace(load_checkpoint(path), **{name: None}), path)
            needs = f"the {name} section of {path.name}"
        message = f"stage {command!r} needs {needs}; run {ARTIFACTS[name][1]!r} first"
        with pytest.raises(DependencyError, match=f"^{re.escape(message)}$"):
            stages()[command][0](cfg, paths)
        assert forwarded == []

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param(_drop("exit_counts"), COUNTS, id="missing-key"),
            pytest.param(_set(extra=1), COUNTS, id="unknown-key"),
            pytest.param(_set(exit_counts=3), COUNTS, id="not-a-list"),
            pytest.param(_set(exit_counts=[]), "exit counts cover no layers", id="no-layers"),
            pytest.param(_set(exit_counts=[-1] + [1] * 7), NOT_A_COUNT + "-1", id="negative"),
            pytest.param(_set(exit_counts=[1.5] + [1] * 7), NOT_A_COUNT + "1.5", id="fraction"),
            pytest.param(_set(exit_counts=[2.0] + [1] * 7), NOT_A_COUNT + "2.0", id="float"),
            pytest.param(_set(exit_counts=[True] + [1] * 7), NOT_A_COUNT + "True", id="bool"),
            pytest.param(_set(exit_counts=["3"] + [1] * 7), NOT_A_COUNT + "'3'", id="str"),
            pytest.param(_set(exit_counts=[0] * 8), "exit counts hold no samples", id="all-zero"),
        ],
    )
    def test_malformed_span_stats_rejected_by_name(self, copy, change, message):
        cfg, paths = copy
        raw = json.loads(paths.span_stats.read_text())
        change(raw)
        paths.span_stats.write_text(json.dumps(raw))
        with pytest.raises(FormatError, match=r"^span_stats\.json: " + message):
            load_span_stats(cfg, paths)

    def test_span_stats_of_another_depth_rejected_by_name(self, copy):
        cfg, paths = copy
        paths.span_stats.write_text(json.dumps({"exit_counts": [1, 2, 3]}))
        with pytest.raises(
            DependencyError, match=r"^span_stats\.json has 3 layers, the config has 8$"
        ):
            load_span_stats(cfg, paths)

    @pytest.mark.parametrize("text, message", [
        ("{", "not JSON"),
        ("[1, 2]", COUNTS),
    ], ids=["truncated", "list"])
    def test_span_stats_that_is_no_record_rejected(self, copy, text, message):
        cfg, paths = copy
        paths.span_stats.write_text(text)
        with pytest.raises(FormatError, match=r"^span_stats\.json: " + message):
            load_span_stats(cfg, paths)

    @pytest.mark.parametrize(
        "counts, error, detail",
        [
            ({}, "FormatError", "exit_counts"),
            ({"exit_counts": [1, 2, 3]}, "DependencyError", "has 3 layers, the config has 8"),
        ],
        ids=["missing-key", "three-counts"],
    )
    def test_eval_reports_malformed_span_stats(self, copy, capsys, counts, error, detail):
        cfg, paths = copy
        paths.span_stats.write_text(json.dumps(counts))
        args = ["eval", "--artifacts", str(paths.root)]
        for key, value in TINY.items():
            args.extend(["--set", f"{key}={value}"])
        assert main(args) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == error
        assert record["message"].startswith("span_stats.json") and detail in record["message"]

    @pytest.mark.parametrize("rows", [3, 0])
    def test_stale_profile_fails_before_any_forward(self, copy, forwarded, rows):
        cfg, paths = copy
        lines = paths.profile_train.read_text().splitlines()
        paths.profile_train.write_text("\n".join(lines[: 1 + rows]) + "\n")
        for report in (*self.REPORTS, stage_calibrate, stage_downstream):
            with pytest.raises(
                DependencyError,
                match=rf"entropy_profile_train\.csv has {rows} layers, the config has 8",
            ):
                report(cfg, paths)
        assert forwarded == []

    @pytest.mark.parametrize(
        "first, got", [("bogus,header", "'bogus,header'"), (None, "'1,")], ids=["bogus", "none"]
    )
    def test_profile_header_checked_before_any_forward(self, copy, forwarded, first, got):
        # Line 1 used to be skipped unread: a bogus header loaded, and a file
        # without one failed on line 2 as if its first row were missing.
        cfg, paths = copy
        lines = paths.profile_train.read_text().splitlines()
        lines[:1] = [first] if first else []
        paths.profile_train.write_text("\n".join(lines) + "\n")
        message = rf"^entropy_profile_train\.csv: line 1 must be 'layer,mean_entropy', got {got}"
        readers = [stage for stage, reads in stages().values() if "profile_train" in reads]
        assert readers
        for stage in readers:
            with pytest.raises(FormatError, match=message):
                stage(cfg, paths)
        assert forwarded == []

    def test_checkpoint_of_another_encoder_fails_before_any_forward(self, copy, forwarded):
        cfg, paths = copy
        four = apply_overrides(cfg, {"encoder.num_layers": "4"})
        for report in (*self.REPORTS, stage_branches, stage_calibrate, stage_downstream):
            with pytest.raises(
                DependencyError,
                match=r"checkpoint\.bin holds EncoderConfig\(num_layers=8, .*"
                r"the config asks for EncoderConfig\(num_layers=4, ",
            ):
                report(four, paths)
        assert forwarded == []

    @pytest.mark.parametrize(
        "row, line",
        [
            pytest.param(1, "1", id="no-comma"),
            pytest.param(2, "2,abc", id="mean-not-a-number"),
            pytest.param(1, "1,nan", id="nan-row-1"),
            pytest.param(3, "3,nan", id="nan-row-3"),
            pytest.param(4, "4,inf", id="inf"),
            pytest.param(5, "5,-0.5", id="negative"),
            pytest.param(6, "7,1.0", id="wrong-layer"),
            pytest.param(2, "2,1.0,3", id="extra-cell"),
        ],
    )
    def test_malformed_profile_row_fails_before_any_forward(
        self, copy, forwarded, capsys, row, line
    ):
        cfg, paths = copy
        lines = paths.profile_train.read_text().splitlines()
        lines[row] = line
        paths.profile_train.write_text("\n".join(lines) + "\n")
        message = rf"^entropy_profile_train\.csv: line {row + 1} must be '{row},"
        for report in (*self.REPORTS, stage_calibrate):
            with pytest.raises(FormatError, match=message):
                report(cfg, paths)
        assert forwarded == []
        args = ["eval", "--artifacts", str(paths.root)]
        for key, value in TINY.items():
            args.extend(["--set", f"{key}={value}"])
        assert main(args) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "FormatError"
        assert re.search(message, record["message"])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "section, array, pick",
        [
            ("encoder", "blocks[5].q_bias", lambda ck: ck.encoder.blocks[5].q_bias),
            ("teacher", "bias", lambda ck: ck.teacher.bias),
            ("branches", "weights", lambda ck: ck.branches.weights),
            ("downstream", "probe_bias", lambda ck: ck.downstream.probe_bias),
        ],
        ids=["encoder", "teacher", "branches", "downstream"],
    )
    def test_non_finite_checkpoint_fails_before_any_forward(
        self, copy, forwarded, capsys, section, array, pick, value
    ):
        cfg, paths = copy
        ck = load_checkpoint(paths.checkpoint)
        pick(ck).flat[0] = value
        save_checkpoint(ck, paths.checkpoint)
        message = rf"^checkpoint\.bin: section '{section}' array '{re.escape(array)}' holds a "
        for stage in (stage_branches, stage_calibrate, stage_downstream, *self.REPORTS):
            with pytest.raises(FormatError, match=message):
                stage(cfg, paths)
        assert forwarded == []
        # A NaN probe bias used to let 'eval' exit 0 and serve class 0 to every sample.
        args = ["eval", "--artifacts", str(paths.root)]
        for key, setting in TINY.items():
            args.extend(["--set", f"{key}={setting}"])
        assert main(args) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "FormatError"
        assert re.search(message, record["message"])

    def test_retrained_branches_drop_the_downstream_head(self, copy):
        # The head was trained under the old exits; eval used to score it anyway.
        cfg, paths = copy
        retrained = replace(cfg, branch_steps=cfg.branch_steps + 10)
        stage_branches(retrained, paths)
        ck = load_checkpoint(paths.checkpoint)
        assert ck.teacher is not None and ck.branches is not None and ck.downstream is None
        for report in (stage_eval, compare_static):
            with pytest.raises(DependencyError, match="run 'train-downstream'"):
                report(retrained, paths)

    def test_retrained_branches_drop_the_policy_file(self, copy):
        # policy.txt was calibrated from the old profile; serving used to load it as is.
        cfg, paths = copy
        old = load_policy(paths.policy_file)
        retrained = replace(cfg, branch_steps=cfg.branch_steps + 10)
        stage_branches(retrained, paths)
        assert not paths.policy_file.exists()
        policy = stage_calibrate(retrained, paths)
        assert policy == calibrate(_read_profile(retrained, paths), cfg.ratio)
        assert load_policy(paths.policy_file) == policy
        assert policy.threshold != old.threshold

    def test_eval_removes_the_records_of_a_dropped_strategy(self, copy):
        cfg, paths = copy
        (paths.metrics_dir / "notes.txt").write_text("not a record\n")
        summary = stage_eval(replace(cfg, strategies=("mean",)), paths)
        assert sorted(summary) == ["mean_ratio0.7", "mean_ratio1"]
        assert sorted(p.name for p in paths.metrics_dir.iterdir()) == [
            "eval_mean_ratio0.7.json", "eval_mean_ratio1.json", "eval_summary.json",
            "exit_hist_mean_ratio0.7.csv", "exit_hist_mean_ratio1.csv", "notes.txt",
        ]
        assert (paths.metrics_dir / "notes.txt").read_text() == "not a record\n"

    def test_eval_error_record_leaves_no_histogram(self, copy):
        cfg, paths = copy
        histogram = paths.metrics_dir / "exit_hist_threshold_ratio1.csv"
        assert histogram.exists()
        summary = stage_eval(replace(cfg, rate_cutoff=0.99), paths)
        assert set(summary["threshold_ratio1"]) == {"error"}
        assert not histogram.exists()
        assert (paths.metrics_dir / "eval_threshold_ratio1.json").exists()

    def test_truncated_dataset_named_by_the_eval_cli(self, copy, forwarded, capsys):
        cfg, paths = copy
        raw = paths.eval_data.read_bytes()
        paths.eval_data.write_bytes(raw[: len(raw) // 2])
        args = ["eval", "--artifacts", str(paths.root)]
        for key, value in TINY.items():
            args.extend(["--set", f"{key}={value}"])
        assert main(args) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "FormatError"
        assert record["message"].startswith("eval_data.bin: truncated stream")
        assert forwarded == []


class TestBatchedPasses:
    """The batched whole-dataset passes give `run_exit`'s exits, sample by sample."""

    def test_noise_sweep_exits_are_run_exit_exits(self, tiny_run, tmp_path):
        cfg, paths = tiny_run
        ck = load_checkpoint(paths.checkpoint)
        heldout = load_dataset(paths.eval_data)
        policy = calibrate(_read_profile(cfg, paths), cfg.sweep_ratio)
        expected = []
        for spec, _ in cfg.mixture_spec().parts:
            noisy = add_noise(heldout, spec).inputs
            table = entropy_table(ck.encoder, ck.branches, noisy)
            served = assert_served_exits(
                ck.encoder, ck.branches, policy, noisy, table, *decide_exits(policy, table)
            )
            counts = ExitCounts.of([t.exit_layer for t in served], cfg.num_layers)
            expected.append({
                "snr": spec.label(),
                "mean_exit_layer": counts.mean,
                "min_exit_layer": counts.first,
                "max_exit_layer": counts.last,
                "fractions": list(counts.fractions),
            })
        copy = ArtifactPaths(shutil.copytree(paths.root, tmp_path / "run"))
        assert noise_sweep(cfg, copy) == expected
        for name in ("exit_distribution", "exit_summary"):
            assert getattr(copy, name).read_bytes() == getattr(paths, name).read_bytes(), name

    def test_downstream_traces_are_run_exit_traces(self, tiny_run):
        cfg, paths = tiny_run
        ck = load_checkpoint(paths.checkpoint)
        train = load_dataset(paths.train_data)
        policy = calibrate(_read_profile(cfg, paths), cfg.ratio)
        head = init_downstream_head(cfg.num_layers, train.num_classes, cfg.model_dim, 0)
        result = train_downstream(
            ck.encoder, ck.branches, policy, head, train, lr=0.1, steps=0, seed=0
        )
        # A freshly loaded encoder keeps nothing, so its table is forwarded anew.
        forwarded = entropy_table(load_checkpoint(paths.checkpoint).encoder, ck.branches,
                                  train.inputs)
        assert np.array_equal(result.entropies, forwarded)
        assert_served_exits(
            ck.encoder, ck.branches, policy, train.inputs,
            result.entropies, result.exits, result.forced,
        )

    def test_exit_traces_csv_is_one_decide_exit_trace_per_row(self, tiny_run):
        # The file's bytes as written from one `decide_exit` trace per entropy
        # row of the training cache: the exit, the forced flag, and the entropy
        # of each evaluated layer, blank past the exit.
        cfg, paths = tiny_run
        ck = load_checkpoint(paths.checkpoint)
        train = load_dataset(paths.train_data)
        policy = calibrate(_read_profile(cfg, paths), cfg.ratio)
        rows = batch_entropies(ck.branches, hidden_state_cache(ck.encoder, train.inputs))
        layers = range(1, cfg.num_layers + 1)
        header = ",".join(["sample_id,exit_layer,forced"] + [f"e{k}" for k in layers])
        lines = [header]
        for i, row in enumerate(rows):
            t = decide_exit(policy, lambda k: row[k - 1])
            cells = [i, t.exit_layer, int(t.forced)]
            cells.extend(repr(t.entropies[k]) if k in t.entropies else "" for k in layers)
            lines.append(",".join(str(cell) for cell in cells))
        assert any(line.endswith(",") for line in lines), "no exit before the last layer"
        assert paths.exit_traces.read_text() == "\n".join(lines) + "\n"


class TestReplay:
    """Policies replayed over the per-layer table equal the reference forwards."""

    @pytest.fixture(scope="class")
    def loaded(self, tiny_run):
        cfg, paths = tiny_run
        ck = load_checkpoint(paths.checkpoint)
        heldout = load_dataset(paths.eval_data)
        return cfg, paths, ck, heldout

    def _policies(self, cfg, paths, ck):
        profile = _read_profile(cfg, paths)
        stats = load_span_stats(cfg, paths)
        policies = []
        for ratio in cfg.eval_ratios:
            base = calibrate(profile, ratio)
            for strategy in cfg.strategies:
                try:
                    policies.append(
                        constrain(base, strategy, stats, rate_cutoff=cfg.rate_cutoff)
                    )
                except ConfigError:
                    continue
        assert any(p.span_kind == "unconstrained" for p in policies)
        return policies

    def test_profile_csv_calibrates_like_a_fresh_profile(self, loaded):
        cfg, paths, ck, _ = loaded
        fresh = entropy_profile(ck.encoder, ck.branches, load_dataset(paths.train_data))
        read = _read_profile(cfg, paths)
        assert read.layer_means == fresh.layer_means
        for ratio in (*cfg.eval_ratios, cfg.sweep_ratio, cfg.ratio):
            assert calibrate(read, ratio) == calibrate(fresh, ratio)

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("renormalize", (True, False))
    def test_records_equal_reference(self, loaded, task, renormalize):
        cfg, paths, ck, heldout = loaded
        table = build_layer_table(
            ck.encoder, ck.branches, heldout, ck.downstream, task, renormalize
        )
        for policy in self._policies(cfg, paths, ck):
            reference = evaluate(
                ck.encoder, ck.branches, policy, ck.downstream, heldout, task, renormalize
            )
            assert replay_evaluate(table, policy) == reference, policy
        for layer in range(1, cfg.num_layers + 1):
            reference = evaluate_static(
                ck.encoder, ck.downstream, heldout, layer, task, renormalize
            )
            pinned = replay_evaluate(table, fixed_exit_policy(layer, cfg.num_layers))
            assert {key: pinned[key] for key in reference} == reference, layer

    def test_row_subset_equals_subset_dataset(self, loaded):
        cfg, paths, ck, heldout = loaded
        table = build_layer_table(ck.encoder, ck.branches, heldout, ck.downstream)
        rows = np.array([17, 3, 3, 29, 8, 0, 21])
        subset = heldout.subset(rows)
        for policy in self._policies(cfg, paths, ck):
            reference = evaluate(ck.encoder, ck.branches, policy, ck.downstream, subset)
            assert replay_evaluate(table, policy, rows) == reference, policy
        for layer in range(1, cfg.num_layers + 1):
            reference = evaluate_static(ck.encoder, ck.downstream, subset, layer)
            pinned = replay_evaluate(table, fixed_exit_policy(layer, cfg.num_layers), rows)
            assert {key: pinned[key] for key in reference} == reference, layer

    def test_noise_sweep_exits_equal_served_exits(self, loaded):
        cfg, paths, ck, heldout = loaded
        policy = calibrate(_read_profile(cfg, paths), cfg.sweep_ratio)
        for level in (None, *cfg.snr_levels):
            noised = add_noise(
                heldout, NoiseSpec(snr_db=level, kind=cfg.noise_kind, seed=cfg.noise_seed)
            )
            table = build_layer_table(ck.encoder, ck.branches, noised, ck.downstream)
            exits, forced = decide_exits(policy, table.entropies)
            assert_served_exits(
                ck.encoder, ck.branches, policy, noised.inputs, table.entropies, exits, forced
            )


class TestMemo:
    """One memo per run: the run's one encoder, whose kept arrays its stages share."""

    def test_run_forwards_the_training_split_once(self, tiny_cfg, tmp_path, monkeypatch):
        # The teacher's forward of the training split is the only one: the
        # branches and the downstream head read its cache. The sweep's clean
        # level is eval's table, so its forwards are the noised levels only.
        # The downstream head decides its exits from the entropy table that
        # train-branches computed, and computes none itself.
        forwarded = _count_forwards(monkeypatch)
        entropy_rows = []
        for module in (branches_module, probe):
            def counting(branches, states, original=module.batch_entropies):
                entropy_rows.append(states.shape[1])
                return original(branches, states)

            monkeypatch.setattr(module, "batch_entropies", counting)
        by_stage, rows_by_stage = {}, {}
        for name, (stage, _) in stages().items():
            def recording(cfg, paths, memo, name=name, stage=stage):
                start, rows_start = len(forwarded), len(entropy_rows)
                stage(cfg, paths, memo)
                by_stage[name] = forwarded[start:]
                rows_by_stage[name] = entropy_rows[rows_start:]

            monkeypatch.setattr(pipeline, stage.__name__, recording)
        paths = run_pipeline(tiny_cfg, tmp_path / "run")
        train = sorted(x.tobytes() for x in load_dataset(paths.train_data).inputs)
        heldout = sorted(x.tobytes() for x in load_dataset(paths.eval_data).inputs)
        assert sorted(x for x in forwarded if x in set(train)) == train
        assert sorted(by_stage["train-teacher"]) == train
        assert sorted(by_stage["eval"]) == heldout
        sweep = by_stage["noise-sweep"]
        assert len(sweep) == len(tiny_cfg.snr_levels) * tiny_cfg.num_eval
        assert not set(heldout).intersection(sweep)
        for name in ("synth", "train-branches", "calibrate", "train-downstream"):
            assert by_stage[name] == [], name
        assert sum(rows_by_stage["train-branches"]) == tiny_cfg.num_train
        assert rows_by_stage["train-downstream"] == []

    def test_arrays_of_other_sources_are_never_served(self, tiny_run, tmp_path):
        # A memo whose encoders keep arrays of other sources: encoders of
        # other parameters, or of the same parameters run with another head
        # count, keeping the run's own inputs and branches; and the run's
        # encoder keeping other inputs and other branches. Every stage
        # misses, recomputes, and writes the bytes of the run that had a
        # fresh memo.
        cfg, paths = tiny_run
        copy = ArtifactPaths(shutil.copytree(paths.root, tmp_path / "run"))
        ck = load_checkpoint(paths.checkpoint)
        train = load_dataset(paths.train_data).inputs
        heldout = load_dataset(paths.eval_data).inputs
        reseeded = init_encoder(replace(cfg, encoder_seed=cfg.encoder_seed + 1).encoder_config())
        two_heads = init_encoder(replace(cfg, num_heads=2).encoder_config())
        assert parameter_digest(two_heads) == parameter_digest(ck.encoder)
        other_branches = BranchSet(ck.branches.weights + 1, ck.branches.biases)
        memo = Memo()
        run = memo.encoder(ck.encoder)
        for enc in (reseeded, two_heads):
            assert memo.encoder(enc) is enc
            hidden_state_cache(enc, train)
        hidden_state_cache(run, train[::-1])
        for enc, branches, inputs in (
            (reseeded, ck.branches, heldout),
            (two_heads, ck.branches, heldout),
            (run, other_branches, heldout),
            (run, ck.branches, heldout[::-1]),
            (reseeded, ck.branches, train),
            (two_heads, ck.branches, train),
            (run, other_branches, train),
            (run, ck.branches, train[::-1]),
        ):
            enc.kept.keep_table(inputs, branches, np.zeros((len(inputs), cfg.num_layers)))
        for stage in (stage_teacher, stage_branches, stage_calibrate, stage_downstream, noise_sweep):
            stage(cfg, copy, memo)
        for path in paths.root.rglob("*"):
            if path.is_file() and path.name != "timing.json":
                assert (copy.root / path.relative_to(paths.root)).read_bytes() == (
                    path.read_bytes()
                ), path.name

    def test_downstream_reads_no_rows_of_other_branches(self, tiny_run, tmp_path):
        # Only rows kept under other branches: train-downstream computes its
        # own and writes the bytes of the run.
        cfg, paths = tiny_run
        copy = ArtifactPaths(shutil.copytree(paths.root, tmp_path / "run"))
        ck = load_checkpoint(paths.checkpoint)
        train = load_dataset(paths.train_data).inputs
        other_branches = BranchSet(ck.branches.weights + 1, ck.branches.biases)
        memo = Memo()
        enc = memo.encoder(ck.encoder)
        garbage = np.zeros((len(train), cfg.num_layers))
        enc.kept.keep_table(train, other_branches, garbage)
        assert enc.kept.table(train, ck.branches) is None
        assert enc.kept.table(train, other_branches) is garbage
        stage_downstream(cfg, copy, memo)
        for name in ("checkpoint", "span_stats", "exit_traces", "downstream_loss"):
            assert getattr(copy, name).read_bytes() == getattr(paths, name).read_bytes(), name

    def test_a_second_run_in_the_process_forwards_again(self, tiny_cfg, tmp_path, monkeypatch):
        # Nothing outlives a run: each run's memo and encoder are its own.
        forwarded = _count_forwards(monkeypatch)
        counts = []
        for name in ("a", "b"):
            start = len(forwarded)
            paths = run_pipeline(tiny_cfg, tmp_path / name)
            train = {x.tobytes() for x in load_dataset(paths.train_data).inputs}
            counts.append(sum(x in train for x in forwarded[start:]))
        assert counts == [tiny_cfg.num_train] * 2

    def test_the_first_encoder_of_a_config_and_parameters_is_the_runs(self, small_encoder):
        memo = Memo()
        assert memo.encoder(small_encoder) is small_encoder
        assert memo.encoder(init_encoder(small_encoder.config)) is small_encoder
        one_head = init_encoder(replace(small_encoder.config, num_heads=1))
        assert memo.encoder(one_head) is one_head
        assert Memo().encoder(init_encoder(small_encoder.config)) is not small_encoder


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tiny_cfg, tmp_path):
        # Every file both runs write, but the wall-clock timing.json.
        a = run_pipeline(tiny_cfg, tmp_path / "a")
        b = run_pipeline(tiny_cfg, tmp_path / "b")

        def files(root):
            return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

        assert files(a.root) == files(b.root)
        for name in files(a.root):
            if name != Path("timing.json"):
                assert (a.root / name).read_bytes() == (b.root / name).read_bytes(), name


class TestCli:
    def test_pipeline_and_eval_smoke(self, tmp_path, capsys):
        artifacts = str(tmp_path / "cli_run")
        args = ["--artifacts", artifacts]
        for key, value in TINY.items():
            args.extend(["--set", f"{key}={value}"])
        assert main(["pipeline", *args]) == 0
        snr = ["--set", "eval.snr_levels=5", "--set", "eval.mixture_fractions=0.5,0.5"]
        assert main(["noise-sweep", *args, *snr]) == 0
        out = capsys.readouterr().out
        assert "snr=clean" in out and "snr=5" in out

    def test_stagewise_flow(self, tiny_cfg, tmp_path):
        # The stages run one by one write what run_pipeline writes, byte for
        # byte; config.ini comes only from the 'pipeline' command.
        artifacts = tmp_path / "cli_stages"
        args = ["--artifacts", str(artifacts)]
        for key, value in TINY.items():
            args.extend(["--set", f"{key}={value}"])
        for command in stages():
            assert main([command, *args]) == 0, command
        reference = run_pipeline(tiny_cfg, tmp_path / "pipeline").root

        def files(root):
            return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

        written = files(artifacts)
        assert written == files(reference) - {Path("config.ini")}
        for name in sorted(written - {Path("timing.json")}):
            assert (artifacts / name).read_bytes() == (reference / name).read_bytes(), name

    @pytest.mark.parametrize(
        "split, attr", [("train_data", "profile_train"), ("eval_data", "profile_heldout")]
    )
    def test_written_profiles_equal_a_fresh_profile(self, tiny_run, tmp_path, split, attr):
        # train-branches (from its cache) and eval (from its table) write the
        # bytes a fresh forward of the split gives.
        _, paths = tiny_run
        ck = load_checkpoint(paths.checkpoint)
        fresh = entropy_profile(ck.encoder, ck.branches, load_dataset(getattr(paths, split)))
        _write_profile(tmp_path / "fresh.csv", fresh)
        assert getattr(paths, attr).read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_subcommands_are_the_stages_and_pipeline(self):
        # Each named as in the table, with the first line of its docstring as help.
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        commands = {name: stage for name, (stage, _) in stages().items()}
        commands["pipeline"] = run_pipeline
        assert list(sub.choices) == list(commands)
        assert {a.dest: a.help for a in sub._choices_actions} == {
            name: command.__doc__.partition("\n")[0] for name, command in commands.items()
        }

    def test_every_artifact_writer_is_a_command(self):
        assert {writer for _, writer in ARTIFACTS.values()} <= {*stages(), "pipeline"}

    def test_run_pipeline_runs_the_stages_patched_onto_the_module(
        self, tiny_cfg, tmp_path, monkeypatch
    ):
        # A table built once at import would keep the original functions, so a
        # tracer patching the module's attributes would see no stage run.
        calls = []
        for name, (stage, _) in stages().items():
            monkeypatch.setattr(
                pipeline,
                stage.__name__,
                lambda cfg, paths, memo, name=name: calls.append((name, cfg, paths.root)),
            )
        paths = run_pipeline(tiny_cfg, tmp_path / "run")
        assert calls == [(name, tiny_cfg, paths.root) for name in stages()]
        assert load_config(paths.config_file) == tiny_cfg

    def test_missing_dependency_gives_json_error_line(self, tmp_path, capsys):
        code = main(["train-branches", "--artifacts", str(tmp_path / "none")])
        captured = capsys.readouterr()
        assert code == 1
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["error"] == "DependencyError"

    def test_bad_config_key(self, tmp_path, capsys):
        code = main(["synth", "--artifacts", str(tmp_path), "--set", "data.bogus=1"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"

    def test_calibrate_ratio_flag(self, tmp_path, capsys):
        artifacts = str(tmp_path / "cal")
        args = ["--artifacts", artifacts]
        for key, value in TINY.items():
            args.extend(["--set", f"{key}={value}"])
        assert main(["synth", *args]) == 0
        assert main(["train-teacher", *args]) == 0
        assert main(["train-branches", *args]) == 0
        assert main(["calibrate", *args, "--set", "policy.ratio=0.25"]) == 0
        assert load_policy(ArtifactPaths(artifacts).policy_file).ratio == 0.25
