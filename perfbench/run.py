"""tensorconc benchmark: harness sweeps timed end to end, and a traced replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tensorconc is imported from its ``src``
directory.  ``--seed`` becomes the harness ``base_seed`` of a fixed sweep
(see spec.py); the sweep has as many trials as fit ``--seconds`` at the
reference cost, so a seed gives the same inputs on every commit.

``--trace 0`` (end to end, tracing off), one caller in a closed loop:
  * setup_s: median over fresh processes of importing tensorconc.cli and
    loading the config;
  * the sweep through ``harness.run`` at jobs=1 gives trials_per_s,
    trial_ms_p50 (median of the CSV wall_ms column), peak_rss_mb of that
    process and ratio_p50 (median certified ratio, a function of the seed);
  * the same sweep at jobs=2 gives trials_per_s_j2, and its CSV must equal
    the jobs=1 CSV with wall_ms masked.
``--trace 1`` runs the sweep untraced, replays each trial with a span around
every public call (tracing.py) and reports the per-layer metrics.

Every trial is gated (spec.py); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs, including
the spans, stay in ``.bench_out/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import (
    END_TO_END, PER_LAYER, WORKLOADS, check_same_output, check_sweep, headline_ratio, wall_ms,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


class StepFailed(Exception):
    pass


class Runner:
    """Starts one worker process at a time and waits for it to end."""

    def __init__(self):
        self.start = time.monotonic()

    def step(self, *args) -> dict:
        left = TIME_LIMIT_S - (time.monotonic() - self.start)
        if left <= 0:
            raise StepFailed(f"time limit reached before {args[0]}")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *map(str, args)],
                cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise StepFailed(f"{args[0]} exceeded the time limit") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise StepFailed(f"{args[0]} exited {proc.returncode}: {' | '.join(tail)}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(setup_env: dict) -> dict:
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **setup_env,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "caches": caches,
    }


def measure_setup(runner: Runner, config_path: Path) -> tuple:
    samples = [runner.step("setup", config_path) for _ in range(SETUP_SAMPLES)]
    setup_s = statistics.median(s["import_s"] + s["load_config_s"] for s in samples)
    layer = {
        "cli.import.s": statistics.median(s["import_s"] for s in samples),
        "harness.load_config.s": statistics.median(s["load_config_s"] for s in samples),
    }
    return setup_s, layer, samples[-1]["env"]


def end_to_end(runner: Runner, w, seed: int, seconds: float, outdir: Path) -> tuple:
    trials = dict(zip((1, 2), w.sweep_trials(seconds)))
    paths = {}
    for jobs in (1, 2):
        paths[jobs] = outdir / f"jobs{jobs}.csv"
        cfg = w.make_config(seed, trials[jobs], str(paths[jobs]))
        (outdir / f"jobs{jobs}.json").write_text(json.dumps(cfg, indent=2))
    setup_s, _, env = measure_setup(runner, outdir / "jobs1.json")
    j1 = runner.step("sweep", outdir / "jobs1.json", 1)
    j2 = runner.step("sweep", outdir / "jobs2.json", 2)
    verdict = check_sweep(w, paths[1], trials[1], j1["error"])
    second = check_sweep(w, paths[2], trials[2], j2["error"])
    same = check_same_output(paths[1], paths[2], trials[2])
    second.failed = max(second.failed, same.failed)
    second.reasons.extend(same.reasons)
    verdict.merge(second)
    ok = j1["error"] is None
    walls = sorted(wall_ms(paths[1])) if ok else [0.0]
    metrics = {
        "trials_per_s": trials[1] / j1["run_s"],
        "trial_ms_p50": statistics.median(walls),
        "trials_per_s_j2": trials[2] / j2["run_s"],
        "setup_s": setup_s,
        "peak_rss_mb": j1["peak_rss_mb"],
        "ratio_p50": headline_ratio(w, paths[1]) if ok else 0.0,
    }
    info = {"trials at jobs=1": trials[1], "trials at jobs=2": trials[2],
            "peak_rss_mb at jobs=2": j2["peak_rss_mb"]}
    # The highest percentile with ten trials beyond it is above the median
    # only from 20 trials on; below that it is no tail and is not reported.
    if len(walls) >= 20:
        pct = 100 * (len(walls) - 10) // len(walls)
        info["trial_ms_tail"] = f"p{pct} = {walls[-11]:.1f} ms over {len(walls)} trials"
    return metrics, verdict, env, info


def traced(runner: Runner, w, seed: int, seconds: float, outdir: Path) -> tuple:
    trials = w.trace_trials(seconds)
    csv_path = outdir / "untraced.csv"
    cfg = w.make_config(seed, trials, str(csv_path))
    config_path = outdir / "untraced.json"
    config_path.write_text(json.dumps(cfg, indent=2))
    _, layer, env = measure_setup(runner, config_path)
    result = runner.step("trace", config_path, outdir)
    verdict = check_sweep(w, csv_path, trials)
    if result["failed"]:
        verdict.failed = min(trials, verdict.failed + result["failed"])
        verdict.reasons.extend(result["reasons"])
    metrics = {**result["metrics"], **layer}
    info = {"traced trials": trials, "spans": str(outdir / "spans.jsonl")}
    return metrics, verdict, env, info


def benchmark(w, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print the report and return the result object."""
    outdir = ROOT / ".bench_out" / f"{w.name}-seed{seed}-trace{trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    measure = traced if trace else end_to_end
    wanted = PER_LAYER if trace else END_TO_END
    metrics, verdict, env, info = measure(Runner(), w, seed, seconds, outdir)

    env = environment(env)
    print(f"workload {w.name} seed {seed} base_seed {w.base_seed(seed)} trace {trace}: {w.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, unit in wanted:
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    failed_frac = verdict.failed / verdict.attempted
    print(f"  {'failed_frac':40s} {failed_frac:.6g} ({verdict.failed} of {verdict.attempted} trials)")
    for reason in verdict.reasons[:10]:
        print(f"  FAILED {reason}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }
    (outdir / "result.json").write_text(json.dumps({**result, "environment": env, **info}, indent=2))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "tensorconc" / "harness.py").is_file():
        print(f"benchmark: no tensorconc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except StepFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
