"""Command-line interface: run experiments, list presets, query stable points.

Exit codes: 0 on success, 1 on configuration errors (an allocation too
large for memory and a size beyond a 64-bit integer included), when the
stable-point solve does not converge, and when a worker process dies, 2
when every trial of some sweep point diverged.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (FLOAT_FORMAT, PRESETS, ExperimentSpec, WorkerDied, resolve_points,
                      run_experiment)
from .oracle import ConvergenceError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="perfsim",
                     description="performative prediction simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--trials", type=int, help="override the number of trials")
    run.add_argument("--horizon", type=int, help="override the iteration horizon")
    run.add_argument("--out", help="override the output directory")

    sub.add_parser("presets", help="list available experiment presets")

    oracle = sub.add_parser("oracle", help="print the stable point(s) for a config")
    oracle.add_argument("--config", required=True, help="path to a JSON experiment config")
    return parser


def _load_spec(args) -> ExperimentSpec:
    """The config at ``args.config`` with the flags given, checked again."""
    flags = {name: getattr(args, name, None) for name in ("seed", "trials", "horizon", "out")}
    edits = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(ExperimentSpec.from_json(args.config), **edits)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, (desc, _, _) in PRESETS.items():
                print(f"{name}: {desc}")
            return 0
        if args.command == "oracle":
            spec = _load_spec(args)
            for point in resolve_points(spec):
                values = " ".join(FLOAT_FORMAT % v for v in point.theta_ps)
                print(f"{point.label + ' ' if point.label else ''}{values}")
            return 0
        # run
        spec = _load_spec(args)
        summary = run_experiment(spec)
        all_dead = [p["label"] or "(base)" for p in summary["points"]
                    if len(p["diverged"]) == p["trials"]]
        for point in summary["points"]:
            for d in point["diverged"]:
                print(f"warning: trial {d['trial']} of {point['label'] or '(base)'} "
                      f"diverged at iteration {d['iteration']} ({d['kind']})", file=sys.stderr)
        print(f"wrote {spec.out}/trace.csv and {spec.out}/summary.json")
        if all_dead:
            print(f"error: all trials diverged for: {', '.join(all_dead)}", file=sys.stderr)
            return 2
        return 0
    except (ValueError, OSError, OverflowError, ConvergenceError) as exc:
        print(f"perfsim: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # no size field has an upper bound
        print(f"perfsim: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except WorkerDied as exc:  # a killed worker, say one out of memory
        print(f"perfsim: error: a worker process died: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
