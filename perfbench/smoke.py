"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json lists the metrics the benchmark prints.  Runs
every workload shrunk to a few small trials, with tracing off and on, and
checks that every metric is printed by name with its unit.  Then feeds
the gate a CSV row with lower > upper and a jobs=2 CSV that differs from the
jobs=1 CSV, and checks that each raises the failed share.  Exits 1 on any
failed check.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import shutil
import sys

from run import ROOT, benchmark
from spec import CSV_HEADER, END_TO_END, PER_LAYER, WORKLOADS, check_same_output, check_sweep

TINY = {
    "conc-k3": {"n_list": [12], "estimator": {"restarts": 2}},
    "sparsify-k3": {"n_list": [8], "estimator": {"restarts": 2}},
    "expander-k3": {"n_list": [16], "estimator": {"restarts": 2}, "params": {"mixing_families": 50}},
    "diag-k3": {"n_list": [24], "params": {"families": 50}},
}


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, name=f"smoke-{name}", config={**w.config, **TINY[name]},
                               trial_s=(0.5, 0.5), min_trials=2, reference={})


def printed_metrics(w, trace: int) -> list:
    """Run one tiny benchmark; return the metrics missing from its report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = benchmark(w, seed=1, seconds=1.0, trace=trace)
    lines = out.getvalue().splitlines()
    missing = []
    for name, unit in PER_LAYER if trace else END_TO_END:
        shown = any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines)
        if not shown or result["metrics"].get(name, {}).get("unit") != unit:
            missing.append(name)
    return missing


def rewrite(path, edit) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def gate_checks() -> list:
    """The gate must fail a row with lower > upper and a differing jobs=2 CSV."""
    w = tiny("conc-k3")
    outdir = ROOT / ".bench_out" / f"{w.name}-seed1-trace0"
    j1, j2 = outdir / "jobs1.csv", outdir / "jobs2.csv"
    trials, half = w.sweep_trials(1.0)
    problems = []
    if check_sweep(w, j1, trials).failed or check_same_output(j1, j2, half).failed:
        problems.append("gate fails the untouched tiny sweep")

    bad = outdir / "corrupt.csv"
    shutil.copy(j1, bad)
    shutil.copy(str(j1) + ".summary.json", str(bad) + ".summary.json")
    lo, hi = CSV_HEADER.index("lower"), CSV_HEADER.index("upper")

    def raise_lower(rows):
        rows[1][lo] = repr(float(rows[1][hi]) + 1.0)

    rewrite(bad, raise_lower)
    if check_sweep(w, bad, trials).failed == 0:
        problems.append("a row with lower > upper passed the gate")

    def perturb(rows):
        rows[-1][hi] = repr(float(rows[-1][hi]) * 2.0)

    rewrite(j2, perturb)
    if check_same_output(j1, j2, half).failed != half:
        problems.append("a jobs=2 CSV differing from jobs=1 did not fail every trial")
    return problems


def manifest_checks() -> list:
    """BENCHMARK.json must name existing workloads and exactly the metrics
    the benchmark prints, with the same units."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f"unknown workload {w['name']}" for w in manifest["workloads"]
                if w["name"] not in WORKLOADS]
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in manifest[key]]
        if listed != list(metrics):
            problems.append(f"BENCHMARK.json {key} differs from spec.py")
    return problems


def main() -> int:
    problems = manifest_checks()
    for name in WORKLOADS:
        for trace in (0, 1):
            missing = printed_metrics(tiny(name), trace)
            status = "ok" if not missing else f"missing {missing}"
            print(f"{name} trace {trace}: {status}")
            if missing:
                problems.append(f"{name} trace {trace} missing {missing}")
    problems += gate_checks()
    for p in problems:
        print("FAIL", p)
    print(json.dumps({"smoke": "fail" if problems else "pass"}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
