#!/usr/bin/env python3
"""Self-test of the perfsim benchmark at a tiny size.

Run from the repository root (about a minute on 2 cores):

    python3 perfbench/selftest.py

The metric names and units in ``BENCHMARK.json`` must be those ``run.py``
prints. Every workload runs once untraced and once traced at the sizes in
``run.TINY``: both must pass every output check and print every metric with
its unit. Then a wrong ``theta_ps`` reference (Gaussian and pool) and a
tampered pinned digest must each make ``failed_frac`` > 0. Exits 0 when all
of this holds.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Seeds at which the tiny configs pass the error-decrease check, which a
# tiny horizon makes a coin toss for other seeds.
SEEDS = {"gauss_ar_sweep": 3, "pool_lazy_sweep": 1, "exact_br_batch": 6}


def bench(workload: str, trace: bool, ref: dict) -> tuple:
    """Run one tiny benchmark; return its result and what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run_benchmark(workload, SEEDS[workload], 1, trace, tiny=True, ref=ref)
    return result, printed.getvalue()


def main() -> int:
    if not (run.SRC / "perfsim" / "cli.py").is_file():
        print(f"selftest: no perfsim sources under {run.SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    failures = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    with open(run.BENCH_DIR.parent / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        expect({m["name"]: m["unit"] for m in declared[key]} == units,
               f"BENCHMARK.json {key} names and units match run.py")
    expect([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")

    ref = run.load_reference()
    for workload in run.WORKLOADS:
        for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
            result, printed = bench(workload, trace, ref)
            tag = f"{workload} --trace {int(trace)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: outputs pass every check, failed_frac = 0")
            lines = printed.splitlines()
            unprinted = [name for name, unit in units.items()
                         if result["metrics"][name]["value"] is None
                         or not any(line.startswith(f"{workload} {name} = ")
                                    and line.endswith(f" {unit}") for line in lines)]
            expect(not unprinted, f"{tag}: every metric printed with its unit "
                                  f"(missing: {unprinted or 'none'})")
            expect(any(line.startswith(f"{workload} failed_frac = ") for line in lines),
                   f"{tag}: failed_frac printed")

    tampered = [
        ("gauss_ar_sweep", "wrong Gaussian theta_ps reference",
         lambda r: r["gaussian_ar"].update(z_bar=r["gaussian_ar"]["z_bar"] * (1 + 1e-9))),
        ("pool_lazy_sweep", "wrong pool theta_ps reference",
         lambda r: r["strat_class_logistic"]["theta_ps"].__setitem__(
             0, r["strat_class_logistic"]["theta_ps"][0] + 1e-6)),
        ("gauss_ar_sweep", "tampered pinned trace digest",
         lambda r: r["pinned_trace"]["gauss_ar_sweep"].update(sha256="0" * 64)),
    ]
    for workload, what, tamper in tampered:
        bad = copy.deepcopy(ref)
        tamper(bad)
        result, _ = bench(workload, False, bad)
        expect(result["failed"] > 0 and not result["correct"],
               f"{workload}: {what} gives failed_frac > 0 "
               f"({result['failed']} of {result['attempted']})")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
