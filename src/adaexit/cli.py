"""Command-line harness for the early-exit pipeline.

There is one subcommand per entry of `pipeline.stages()`, named as there
and described by the first line of the stage's docstring, plus `pipeline`,
which runs them all. Every subcommand reads an optional INI config plus
repeatable `--set section.key=value` overrides, and operates on one
artifacts directory; every setting is a config key, so no subcommand has
flags of its own. Exit code 0 on success; on failure a single
machine-readable JSON line goes to stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DependencyError, FormatError
from .pipeline import (
    ArtifactPaths,
    apply_overrides,
    default_config,
    load_config,
    run_pipeline,
    stages,
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
    for name, (command, _) in {**stages(), "pipeline": (run_pipeline, ())}.items():
        _add_common(sub.add_parser(name, help=command.__doc__.partition("\n")[0]))
    return parser


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        dotted, _, value = item.partition("=")
        overrides[dotted.strip()] = value
    return apply_overrides(cfg, overrides)


def _eval_lines(summary: dict):
    for name, record in summary.items():
        if "error" in record:
            yield f"{name}: skipped ({record['error']})"
        else:
            yield (
                f"{name}: accuracy={record['accuracy']:.4f} "
                f"mean_exit={record['mean_exit_layer']:.3f} "
                f"saved={record['layer_compute_saved']:.3f}"
            )


def _sweep_lines(rows: list[dict]):
    for row in rows:
        yield (
            f"snr={row['snr']}: mean_exit={row['mean_exit_layer']:.3f} "
            f"min={row['min_exit_layer']} max={row['max_exit_layer']}"
        )


def _comparison_lines(rows: list[dict]):
    for row in rows:
        if "error" in row:
            yield f"{row['strategy']}: skipped ({row['error']})"
        else:
            yield (
                f"{row['strategy']:>14s} @ {row['noise_level']:>5s}: "
                f"accuracy={row['accuracy']:.4f} mean_exit={row['mean_exit']:.3f}"
            )


# Command -> the lines it prints from its stage's result; the other stages print nothing.
_RESULT_LINES = {
    "calibrate": lambda policy: [f"threshold {policy.threshold!r} at ratio {policy.ratio!r}"],
    "eval": _eval_lines,
    "noise-sweep": _sweep_lines,
    "compare-static": _comparison_lines,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "pipeline":
            run_pipeline(cfg, args.artifacts)
        else:
            result = stages()[args.command][0](cfg, ArtifactPaths(args.artifacts))
            for line in _RESULT_LINES.get(args.command, lambda _: ())(result):
                print(line)
    except (ConfigError, DependencyError, FormatError, ValueError, OSError) as err:
        print(
            json.dumps({"error": type(err).__name__, "message": str(err)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
