"""Command-line harness for the early-exit pipeline.

Every subcommand reads an optional INI config plus repeatable
`--set section.key=value` overrides, and operates on one artifacts
directory. Exit code 0 on success; on failure a single machine-readable
JSON line goes to stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DependencyError, FormatError
from .pipeline import (
    ArtifactPaths,
    apply_overrides,
    compare_static,
    default_config,
    load_config,
    noise_sweep,
    run_pipeline,
    stage_branches,
    stage_calibrate,
    stage_downstream,
    stage_eval,
    stage_synth,
    stage_teacher,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; omitted keys use defaults")
    sub.add_argument(
        "--artifacts", default="artifacts", help="artifacts directory (default: ./artifacts)"
    )
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value; may be repeated and wins over --config",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaexit",
        description="Adaptive early-exit inference: synthesize data, train the "
        "three stages, and benchmark exit behaviour under noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "synth": "synthesize the train/held-out datasets",
        "train-teacher": "stage 1a: train the final-layer teacher head",
        "train-branches": "stage 1b: train per-layer exit branches on pseudo-labels",
        "profile-entropy": "write the per-layer mean entropy profile of a split",
        "calibrate": "stage 2a: fix the exit threshold from the training profile",
        "train-downstream": "stage 2b: train the downstream head with exits active",
        "eval": "stage 3: evaluate every strategy and inference ratio",
        "noise-sweep": "exit-layer distributions across noise levels",
        "compare-static": "span strategies vs. a fixed-depth truncation on the mixture",
        "pipeline": "run every stage and report end to end",
    }
    parsers = {}
    for name, help_text in commands.items():
        parsers[name] = sub.add_parser(name, help=help_text)
        _add_common(parsers[name])

    parsers["profile-entropy"].add_argument(
        "--split", choices=("train", "eval"), default="eval",
        help="which split to profile (default: eval)",
    )
    parsers["calibrate"].add_argument(
        "--ratio", type=float, help="threshold scaling ratio in [0,1]"
    )
    parsers["noise-sweep"].add_argument(
        "--snrs", help="comma-separated SNR levels in dB (clean is always included)"
    )
    parsers["noise-sweep"].add_argument(
        "--ratio", type=float, help="inference ratio for the sweep (default: config sweep_ratio)"
    )
    parsers["compare-static"].add_argument(
        "--layer", type=int, help="static truncation depth (default: config static_layer)"
    )
    return parser


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        dotted, _, value = item.partition("=")
        overrides[dotted.strip()] = value
    if getattr(args, "ratio", None) is not None and args.command == "calibrate":
        overrides["policy.ratio"] = str(args.ratio)
    return apply_overrides(cfg, overrides)


def _profile_entropy(cfg, paths, split: str) -> None:
    from .branches import entropy_profile
    from .pipeline import _loaded_pipeline, _require, _write_profile
    from .serialize import load_dataset

    source = "train_data" if split == "train" else "eval_data"
    data = load_dataset(_require(paths, source, "profile-entropy"))
    ck = _loaded_pipeline(cfg, paths, "profile-entropy")
    profile = entropy_profile(ck.encoder, ck.branches, data)
    target = paths.profile_train if split == "train" else paths.profile_heldout
    _write_profile(target, profile)
    print(f"wrote {target}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        paths = ArtifactPaths(args.artifacts)
        command = args.command
        if command == "synth":
            stage_synth(cfg, paths)
        elif command == "train-teacher":
            stage_teacher(cfg, paths)
        elif command == "train-branches":
            stage_branches(cfg, paths)
        elif command == "profile-entropy":
            _profile_entropy(cfg, paths, args.split)
        elif command == "calibrate":
            policy = stage_calibrate(cfg, paths)
            print(f"threshold {policy.threshold!r} at ratio {policy.ratio!r}")
        elif command == "train-downstream":
            stage_downstream(cfg, paths)
        elif command == "eval":
            summary = stage_eval(cfg, paths)
            for name, record in summary.items():
                if "error" in record:
                    print(f"{name}: skipped ({record['error']})")
                else:
                    print(
                        f"{name}: accuracy={record['accuracy']:.4f} "
                        f"mean_exit={record['mean_exit_layer']:.3f} "
                        f"saved={record['layer_compute_saved']:.3f}"
                    )
        elif command == "noise-sweep":
            snrs = None
            if args.snrs:
                snrs = tuple(float(part) for part in args.snrs.split(",") if part.strip())
            for row in noise_sweep(cfg, paths, snr_levels=snrs, ratio=args.ratio):
                print(
                    f"snr={row['snr']}: mean_exit={row['mean_exit_layer']:.3f} "
                    f"min={row['min_exit_layer']} max={row['max_exit_layer']}"
                )
        elif command == "compare-static":
            for row in compare_static(cfg, paths, static_layer=args.layer):
                if "error" in row:
                    print(f"{row['strategy']}: skipped ({row['error']})")
                else:
                    print(
                        f"{row['strategy']:>14s} @ {row['noise_level']:>5s}: "
                        f"accuracy={row['accuracy']:.4f} mean_exit={row['mean_exit']:.3f}"
                    )
        elif command == "pipeline":
            run_pipeline(cfg, args.artifacts)
        else:  # pragma: no cover - argparse enforces choices
            raise ConfigError(f"unknown command {command!r}")
    except (ConfigError, DependencyError, FormatError, ValueError, OSError) as err:
        print(
            json.dumps({"error": type(err).__name__, "message": str(err)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
