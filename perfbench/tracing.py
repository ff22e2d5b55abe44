"""Traced replay of a harness sweep, for the benchmark's per-layer numbers.

The sweep first runs untraced through ``harness.run``; then every trial is
replayed by calling each module's public functions in the order
``harness._run_trial`` calls them, with a span around every call.  The replay
must reproduce the harness bit for bit: the spectral sandwich is split into
``slice_lower``, ``hopm_lower``, ``unfold(...).coords`` and
``matrix_op_norm`` and must give ``spectral_sandwich``'s lower, upper and
iteration count; the sampled subset families are replayed as explicit
families and must give the sampled report.

Spans are kept in memory and written to ``spans.jsonl`` when the sweep ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from tensorconc import harness, regularization
from tensorconc.core import Homogeneous, OffsetTensor, SparseTensor, TensorShape, center, multilinear_form
from tensorconc.diagnostics import bounded_degree_check, discrepancy_check
from tensorconc.hypergraph import SubsetFamilies, adjacency, mixing_check, sample_subset_families
from tensorconc.regularization import degree_map, expander_construct
from tensorconc.rng import SeedSpec
from tensorconc.sampling import bernoulli_sample, er_hypergraph, sparsify_uniform
from tensorconc.spectral import hopm_lower, kron_lift, matrix_op_norm, slice_lower
from tensorconc.unfolding import balanced_partition, unfold

from spec import COUNTS, LAYERS, TIMED_CALLS


class Tracer:
    """In-memory span recorder: name, start, end, parent span and trial id."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.trial = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start_ns": 0, "end_ns": 0, "parent": parent, "trial": self.trial}
        self.spans.append(record)
        self._open.append(idx)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def nested(self, module, attr: str, name: str):
        """Record a span for each call to ``module.attr`` made by library code,
        which looks the function up on its module at call time."""
        original = getattr(module, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, spanned)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as f:
            for idx, record in enumerate(self.spans):
                f.write(json.dumps({"id": idx, **record}) + "\n")


def _csr_matvec_bytes(nnz: int, nrows: int, ncols: int) -> int:
    """Computed bytes of one mv plus one rmv: float64 values and int32 column
    indices per entry, int32 row pointers, and the float64 input and output
    vectors of each product."""
    return 2 * nnz * 12 + (nrows + ncols + 2) * 4 + 2 * (nrows + ncols) * 8


def _traced_sandwich(tr: Tracer, cfg, w: OffsetTensor, seed: SeedSpec) -> dict:
    """``spectral_sandwich`` for k >= 3 and 2m >= k, one public call at a time."""
    k = w.shape.order
    if cfg.partition is not None or 2 * cfg.m < k:
        raise ValueError("traced replay covers the balanced unfolding with 2m >= k only")
    pconf = cfg.estimator.power_config(seed)
    part = balanced_partition(k, cfg.m)
    sl = tr.call("spectral.slice_lower", slice_lower, w, num_slices=cfg.estimator.num_slices,
                 seed=pconf.seed, config=pconf)
    hopm = tr.call("spectral.hopm_lower", hopm_lower, w, pconf, extra_inits=[sl.witness])
    if sl.value > hopm.value:
        lower, witness, lower_conv = sl.value, sl.witness, sl.converged
    else:
        lower, witness, lower_conv = hopm.value, hopm.witness, hopm.converged
    lift = tr.call("spectral.kron_lift", kron_lift, list(witness), part.blocks[1])
    with tr.span("unfolding.unfold"):
        view = unfold(w, part)
        view.coords
    upper = tr.call("spectral.matrix_op_norm", matrix_op_norm, view, pconf, extra_inits=[lift])
    tr.call("core.multilinear_form", multilinear_form, w, witness)
    nrows, ncols = view.dims
    return {
        "lower": lower,
        "upper": upper.value,
        "iterations": hopm.iterations + upper.iterations,
        "counts": {
            "spectral.hopm_lower.sweeps": hopm.iterations,
            "spectral.matrix_op_norm.iters": upper.iterations,
            "spectral.matvec_bytes": upper.iterations * _csr_matvec_bytes(view.nnz, nrows, ncols),
            "unfolding.cols": ncols,
            "core.coo_bytes": w.nnz * (4 * k + 8),
        },
        "converged": bool(lower_conv and upper.converged),
    }


def _traced_trial(tr: Tracer, cfg, n: int, trial: int) -> dict:
    """Replay ``harness._run_trial`` call by call; returns what it computed."""
    seed = SeedSpec(cfg.base_seed, trial)
    p = cfg.p_rule.value(n)
    shape = TensorShape(cfg.k, n)
    got = {"counts": {}}
    with tr.span("harness.trial"):
        if cfg.command == "concentration":
            t = tr.call("sampling.bernoulli_sample", bernoulli_sample, shape, Homogeneous(p), seed)
            w = tr.call("core.center", center, t, Homogeneous(p))
            got.update(_traced_sandwich(tr, cfg, w, seed))
            got["aux"] = {"nnz": t.nnz}
            got["counts"]["sampling.nnz"] = t.nnz
        elif cfg.command == "sparsify":
            base = tr.call("core.all_ones", SparseTensor.all_ones, shape)
            kept = tr.call("sampling.sparsify_uniform", sparsify_uniform, base, p, seed)
            keep_lin = tr.call("core.linear_indices", kept.linear_indices)
            mask = np.zeros(shape.ncoords, dtype=bool)
            mask[keep_lin.astype(np.int64)] = True
            values = np.where(mask, base.values * (1.0 - p), base.values * (-p))
            sparse = tr.call("core.sparse_tensor", SparseTensor, shape, base.coords, values,
                             presorted=True)
            got.update(_traced_sandwich(tr, cfg, OffsetTensor(sparse, 0.0), seed))
            got["aux"] = {"kept": kept.nnz, "total": base.nnz}
            got["counts"]["sampling.nnz"] = kept.nnz
        elif cfg.command == "expander":
            h = tr.call("sampling.er_hypergraph", er_hypergraph, cfg.k, n, p, seed)
            adj = tr.call("hypergraph.adjacency", adjacency, h)
            tprime = tr.call("regularization.expander_construct", expander_construct, adj, p)
            w = tr.call("core.center", center, tprime, Homogeneous(p))
            got.update(_traced_sandwich(tr, cfg, w, seed))
            dmax = 0
            if tprime.nnz:
                dmax = tr.call("regularization.degree_map", degree_map, tprime, cfg.k - 1).max_degree
            count = int(cfg.params.get("mixing_families", 500))
            fams = tr.call("hypergraph.sample_subset_families", sample_subset_families,
                           cfg.k, n, count, seed)
            spec = tr.call("hypergraph.subset_families", SubsetFamilies.explicit, fams)
            report = tr.call("hypergraph.mixing_check", mixing_check, tprime, p, spec, seed)
            got["aux"] = {"edges": h.num_edges, "max_first_mode_degree": dmax,
                          "mixing_max_ratio": report.max_ratio, "fitted_C": report.fitted_c}
            got["counts"].update({"sampling.edges": h.num_edges, "hypergraph.families": count,
                                  "regularization.kept_entries": tprime.nnz})
        elif cfg.command == "diagnostics":
            t = tr.call("sampling.bernoulli_sample", bernoulli_sample, shape, Homogeneous(p), seed)
            count = int(cfg.params.get("families", 1000))
            with tr.nested(regularization, "degree_map", "regularization.degree_map"):
                bd = tr.call("diagnostics.bounded_degree_check", bounded_degree_check, t, p,
                             float(cfg.params.get("c1", 3.0)))
            fams = tr.call("hypergraph.sample_subset_families", sample_subset_families,
                           cfg.k, n, count, seed)
            disc = tr.call("diagnostics.discrepancy_check", discrepancy_check, t, p,
                           float(cfg.params.get("c2", 20.0)), float(cfg.params.get("c3", 20.0)),
                           fams, seed)
            got["aux"] = {"nnz": t.nnz, "max_degree": bd.max_degree,
                          "disc_violations": disc.violations, "fitted_c2": disc.fitted_c2,
                          "fitted_c3": disc.fitted_c3}
            got["counts"].update({"sampling.nnz": t.nnz, "hypergraph.families": count,
                                  "core.coo_bytes": t.nnz * (4 * cfg.k + 8)})
        else:
            raise ValueError(f"no traced replay for command {cfg.command!r}")
    return got


def _mismatches(got: dict, rec, est) -> list:
    """Bit-for-bit differences between the replay and the harness's outputs."""
    out = []
    if "lower" in got:
        want = (est.lower, est.upper, est.iterations_used, rec.lower, rec.upper)
        have = (got["lower"], got["upper"], got["iterations"], got["lower"], got["upper"])
        if want != have:
            out.append(f"sandwich replay {have} != harness {want}")
    for key, value in got.get("aux", {}).items():
        if rec.aux.get(key) != value:
            out.append(f"{key}: replay {value!r} != harness {rec.aux.get(key)!r}")
    return out


def _per_trial_times(spans: list) -> dict:
    """trial -> {call name: seconds, "<layer>.self_s": seconds, "trial_s": seconds}."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = {}
    for idx, s in enumerate(spans):
        row = out.setdefault(s["trial"], {})
        dur = s["end_ns"] - s["start_ns"]
        row[s["name"]] = row.get(s["name"], 0.0) + dur * 1e-9
        key = s["name"].split(".")[0] + ".self_s"
        row[key] = row.get(key, 0.0) + (dur - child_ns[idx]) * 1e-9
        if s["parent"] is None:
            row["trial_s"] = dur * 1e-9
    return out


def traced_sweep(config_path: str, outdir: Path) -> dict:
    cfg = harness.load_config(config_path)

    # iterations_used is not in the CSV, so keep each trial's estimate.
    estimates = []
    sandwich = harness.spectral_sandwich

    def capture(*args, **kwargs):
        est = sandwich(*args, **kwargs)
        estimates.append(est)
        return est

    harness.spectral_sandwich = capture
    try:
        t0 = time.perf_counter()
        records = harness.run(cfg, jobs=1)
        run_s = time.perf_counter() - t0
    finally:
        harness.spectral_sandwich = sandwich
    summarize_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        harness.summarize(cfg.out)
        summarize_s.append(time.perf_counter() - t0)

    tr = Tracer()
    est_iter = iter(estimates)
    counts, converged, reasons, failed = [], [], [], 0
    for rec in records:
        tr.trial = f"{rec.n}:{rec.trial}"
        got = _traced_trial(tr, cfg, rec.n, rec.trial)
        problems = _mismatches(got, rec, next(est_iter) if "lower" in got else None)
        if problems:
            failed += 1
            reasons.extend(f"trial {tr.trial}: {p}" for p in problems)
        counts.append(got["counts"])
        if "converged" in got:
            converged.append(got["converged"])
    tr.write(outdir / "spans.jsonl")

    times = _per_trial_times(tr.spans)
    rows = [times[f"{rec.n}:{rec.trial}"] for rec in records]

    def med(key, source=rows):
        return statistics.median(r.get(key, 0) for r in source)

    def per_unit_us(call, count_key):
        total = sum(r.get(call, 0.0) for r in rows)
        units = sum(c.get(count_key, 0) for c in counts)
        return 1e6 * total / units if units else 0.0

    metrics = {f"{name}.s": med(name) for name in TIMED_CALLS}
    metrics.update({name: med(name, counts) for name in COUNTS})
    metrics.update({
        "spectral.hopm_lower.us_per_sweep": per_unit_us("spectral.hopm_lower", "spectral.hopm_lower.sweeps"),
        "spectral.matrix_op_norm.us_per_iter": per_unit_us("spectral.matrix_op_norm", "spectral.matrix_op_norm.iters"),
        "spectral.converged_frac": sum(converged) / len(converged) if converged else 0.0,
        "diagnostics.us_per_family": per_unit_us("diagnostics.discrepancy_check", "hypergraph.families"),
        "harness.summarize.s": statistics.median(summarize_s),
        "harness.write.s": run_s - sum(rec.wall_ms for rec in records) / 1000.0,
        "trace.overhead_ms": statistics.median(
            1000.0 * row["trial_s"] - rec.wall_ms for row, rec in zip(rows, records)),
        "trace.trials": len(records),
    })
    metrics.update({f"{layer}.self_s": med(f"{layer}.self_s") for layer in LAYERS})
    return {"metrics": metrics, "trials": len(records), "failed": failed, "reasons": reasons[:20]}
