"""Workloads, metric names and the correctness gate of the tensorconc benchmark.

Each workload is one fixed harness sweep: a config template, a reference cost
per trial that sizes the sweep to the requested run length, and the checks
its CSV rows must pass.  The benchmark maps its ``--seed`` to the harness
``base_seed``; the library receives only the generated config.

This module reads and compares files only; it does not import tensorconc, so
the parent benchmark process stays free of the library's memory and import
cost.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

CSV_HEADER = [
    "command", "k", "n", "p", "m", "trial", "seed", "lower", "upper",
    "sqrt_nmp", "ratio_lower", "ratio_upper", "aux", "wall_ms",
]
WALL_MS = CSV_HEADER.index("wall_ms")
SANDWICH_SLACK = 1e-8

# End-to-end metrics, measured with tracing off.
END_TO_END = (
    ("trials_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("trials_per_s_j2", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ratio_p50", "ratio"),
)

LAYERS = ("core", "sampling", "unfolding", "spectral", "regularization",
          "hypergraph", "diagnostics", "harness")

# Public calls whose time per trial the traced run reports as "<name>.s".
TIMED_CALLS = (
    "spectral.hopm_lower", "spectral.matrix_op_norm", "spectral.slice_lower",
    "unfolding.unfold",
    "core.all_ones", "core.sparse_tensor", "core.center", "core.multilinear_form",
    "sampling.bernoulli_sample", "sampling.sparsify_uniform", "sampling.er_hypergraph",
    "hypergraph.sample_subset_families", "hypergraph.mixing_check", "hypergraph.adjacency",
    "diagnostics.discrepancy_check", "diagnostics.bounded_degree_check",
    "regularization.expander_construct", "regularization.degree_map",
)

# Exact work counts per trial; the byte counts are computed from sizes.
COUNTS = {
    "spectral.hopm_lower.sweeps": "count",
    "spectral.matrix_op_norm.iters": "count",
    "spectral.matvec_bytes": "B",
    "unfolding.cols": "count",
    "core.coo_bytes": "B",
    "sampling.nnz": "count",
    "sampling.edges": "count",
    "hypergraph.families": "count",
    "regularization.kept_entries": "count",
}

# Per-layer metrics, from the traced run: medians per trial unless noted.
PER_LAYER = (
    tuple((f"{name}.s", "s") for name in TIMED_CALLS)
    + tuple(COUNTS.items())
    + (
        ("spectral.hopm_lower.us_per_sweep", "us"),
        ("spectral.matrix_op_norm.us_per_iter", "us"),
        ("spectral.converged_frac", "frac"),
        ("diagnostics.us_per_family", "us"),
        ("harness.load_config.s", "s"),
        ("harness.summarize.s", "s"),
        ("harness.write.s", "s"),
        ("cli.import.s", "s"),
    )
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + (("trace.overhead_ms", "ms"), ("trace.trials", "count"))
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # Mean seconds per trial at jobs=1 and jobs=2 at the commit that defined
    # the benchmark (2-core x86 box, OpenBLAS 0.3.31); they only size sweeps.
    trial_s: tuple
    min_trials: int = 4  # at jobs=2; the jobs=1 sweep has twice as many
    ratio_upper_max: float | None = None
    fitted_c_max: float | None = None
    reference: dict = field(default_factory=dict)

    def base_seed(self, seed: int) -> int:
        """Harness base seed for a benchmark seed.

        A workload with recorded outcomes draws its base seed from the
        recorded pool, so every seed's trials can be checked against them.
        """
        if self.reference:
            pool = sorted({int(key.split(":")[0]) for key in self.reference})
            return pool[seed % len(pool)]
        return seed

    def sweep_trials(self, seconds: float) -> tuple:
        """Trials of the jobs=1 sweep and of the jobs=2 sweep, which runs the
        first half of the same trials; together they take about ``seconds``
        at the reference cost.  The jobs=1 sweep gets the larger share
        because it feeds three metrics, and its median needs the trials."""
        half = max(self.min_trials, round(seconds / (2 * self.trial_s[0] + self.trial_s[1])))
        return 2 * half, half

    def trace_trials(self, seconds: float) -> int:
        """Trials for the traced run, which runs every trial twice
        (untraced through the harness, then traced call by call)."""
        return max(2, round(seconds / (2.0 * self.trial_s[0])))

    def make_config(self, seed: int, trials: int, out: str) -> dict:
        return dict(self.config, trials=trials, base_seed=self.base_seed(seed), out=out)


def _load_reference(name: str) -> dict:
    path = HERE / f"{name}.reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conc-k3",
            why="headline concentration sweep: many short power-iteration "
                "matvecs, so spectral per-call overhead dominates",
            config={
                "command": "concentration", "k": 3, "m": 2, "n_list": [120],
                "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 2},
                "estimator": {"restarts": 6},
            },
            trial_s=(0.68, 1.0),
            ratio_upper_max=4.0,
        ),
        Workload(
            name="sparsify-k3",
            why="uniform sparsification of the all-ones tensor: bulk passes "
                "over 125k entries in core and spectral",
            config={
                "command": "sparsify", "k": 3, "m": 2, "n_list": [50],
                "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 2},
                "estimator": {"restarts": 3},
            },
            trial_s=(2.8, 1.7),
            ratio_upper_max=4.0,
        ),
        Workload(
            name="expander-k3",
            why="ER hypergraph, adjacency, expander construction and mixing "
                "check: the only sweep through those calls",
            config={
                "command": "expander", "k": 3, "m": 2, "n_list": [120],
                "p_rule": {"kind": "c_over_nm", "c": 40.0, "m": 2},
                "estimator": {"restarts": 6},
                "params": {"mixing_families": 2000},
            },
            trial_s=(1.2, 1.57),
            fitted_c_max=5.0,
        ),
        Workload(
            name="diag-k3",
            why="degree and discrepancy diagnostics with no spectral code: "
                "the control on which spectral changes must not move",
            config={
                "command": "diagnostics", "k": 3, "m": 1, "n_list": [100],
                "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 1},
                "params": {"families": 5000},
            },
            trial_s=(1.67, 1.58),
            reference=_load_reference("diag-k3"),
        ),
    )
}


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons.append(reason)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)


def read_rows(csv_path) -> list:
    """CSV body rows of a harness results file; raises ValueError if malformed."""
    with open(csv_path, "r", encoding="ascii", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"{csv_path}: missing or unexpected header")
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"{csv_path}: row with {len(row)} fields")
    return rows[1:]


def _row_problem(w: Workload, row: list) -> str | None:
    rec = dict(zip(CSV_HEADER, row))
    lower, upper = float(rec["lower"]), float(rec["upper"])
    aux = json.loads(rec["aux"])
    if not (math.isfinite(lower) and math.isfinite(upper)) or lower > upper + SANDWICH_SLACK:
        return f"trial {rec['trial']}: lower {lower!r} > upper {upper!r}"
    if w.ratio_upper_max is not None and float(rec["ratio_upper"]) > w.ratio_upper_max:
        return f"trial {rec['trial']}: ratio_upper {rec['ratio_upper']} > {w.ratio_upper_max}"
    if w.fitted_c_max is not None and aux.get("fitted_C", 0.0) > w.fitted_c_max:
        return f"trial {rec['trial']}: fitted_C {aux['fitted_C']} > {w.fitted_c_max}"
    if w.reference:
        want = w.reference.get(rec["seed"])
        got = [aux.get("max_degree"), aux.get("disc_violations")]
        if want is None:
            return f"trial {rec['trial']}: no recorded outcome for seed {rec['seed']}"
        if got != want:
            return f"trial {rec['trial']}: (max_degree, disc_violations) {got} != recorded {want}"
    return None


def check_sweep(w: Workload, csv_path, trials: int, error: str | None = None) -> Verdict:
    """Gate one sweep: it must not raise, and every row and the written
    summary must pass."""
    v = Verdict(attempted=trials)
    if error is not None:
        v.fail(trials, f"sweep raised {error}")
        return v
    try:
        rows = read_rows(csv_path)
        summary = json.loads(Path(str(csv_path) + ".summary.json").read_text())
    except (OSError, ValueError) as exc:
        v.fail(trials, f"unreadable output: {exc}")
        return v
    if len(rows) != trials:
        v.fail(trials, f"{len(rows)} rows for {trials} trials")
        return v
    if summary.get("violations") != 0 or summary.get("rows") != trials:
        v.fail(trials, f"summary reports violations={summary.get('violations')}")
        return v
    for row in rows:
        try:
            problem = _row_problem(w, row)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unparsable row: {exc}"
        if problem:
            v.fail(1, problem)
    return v


def check_same_output(csv_a, csv_b, trials: int) -> Verdict:
    """Byte-level determinism across worker counts, wall_ms masked: the
    ``trials`` rows of ``csv_b`` must equal the first rows of ``csv_a``, the
    same sweep with at least as many trials.

    A mismatch fails every trial of the second run."""
    v = Verdict(attempted=trials)
    try:
        a, b = read_rows(csv_a)[:trials], read_rows(csv_b)
    except (OSError, ValueError) as exc:
        v.fail(trials, f"unreadable output: {exc}")
        return v
    mask = lambda rows: [r[:WALL_MS] + r[WALL_MS + 1:] for r in rows]  # noqa: E731
    if len(b) != trials or mask(a) != mask(b):
        v.fail(trials, "jobs=2 CSV differs from jobs=1 CSV (wall_ms masked)")
    return v


def headline_ratio(w: Workload, csv_path) -> float:
    """Median over trials of the sweep's certified ratio: the lower bound over
    sqrt(n^m p) for spectral sweeps, max degree over its bound for
    diagnostics (which certifies no spectral bound)."""
    values = []
    for row in read_rows(csv_path):
        rec = dict(zip(CSV_HEADER, row))
        if rec["command"] == "diagnostics":
            aux = json.loads(rec["aux"])
            values.append(aux["max_degree"] / aux["degree_bound"])
        else:
            values.append(float(rec["ratio_lower"]))
    return statistics.median(values)


def wall_ms(csv_path) -> list:
    return [float(r[WALL_MS]) for r in read_rows(csv_path)]
