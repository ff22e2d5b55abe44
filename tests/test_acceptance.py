"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance and trial count is pinned here; runtime limits are
asserted alongside the statistical checks.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import random_sparse
from oracles import (
    dense_count_edges,
    dense_degree_counts,
    dense_form,
    dense_inner,
    dense_unfolding_holds,
    set_partitions,
)
from tensorconc import (
    Homogeneous,
    Partition,
    PowerIterConfig,
    SeedSpec,
    SparseTensor,
    SubsetFamilies,
    TensorShape,
    adjacency,
    balanced_partition,
    bernoulli_sample,
    bounded_degree_check,
    center,
    count_edges,
    degree_map,
    discrepancy_check,
    er_hypergraph,
    expander_construct,
    frobenius_norm,
    hopm_lower,
    kl_bernoulli,
    matrix_op_norm,
    mixing_check,
    multilinear_form,
    phi_array,
    regularize,
    slice_lower,
    sparsify_uniform,
    spectral_sandwich,
    unfold,
)
from tensorconc.core import DenseProbability


class _Clock:
    def __init__(self, limit_s: float):
        self.limit = limit_s
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _report(num: int, name: str, ok: bool, clock: _Clock, detail: str = ""):
    status = "PASS" if ok and clock.elapsed < clock.limit else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} "
          f"({clock.elapsed:.1f}s of {clock.limit:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert clock.elapsed < clock.limit, f"criterion {num} exceeded its runtime limit"


def test_criterion_01_oracle_equivalence():
    clock = _Clock(30.0)
    gen = np.random.default_rng(101)
    checked = 0
    for i in range(200):
        k = int(gen.integers(2, 5))
        n = int(gen.integers(2, 9))
        t = random_sparse(gen, k, n, density=0.4, values="float")
        tb = random_sparse(gen, k, n, density=0.4, values="binary")
        dense, dense_b = t.to_dense(), tb.to_dense()
        # multilinear form and Frobenius norm against nested loops
        xs = [v / max(np.linalg.norm(v), 1e-12) for v in gen.standard_normal((k, n))]
        assert multilinear_form(t, xs) == pytest.approx(dense_form(dense, xs), rel=1e-10, abs=1e-12)
        assert frobenius_norm(t) == pytest.approx(
            math.sqrt(dense_inner(dense, dense)), rel=1e-10, abs=1e-12)
        # integer-valued checks are exact
        subsets = [gen.choice(np.arange(1, n + 1), size=int(gen.integers(1, n + 1)),
                              replace=False) for _ in range(k)]
        assert count_edges(tb, subsets) == dense_count_edges(dense_b, subsets)
        m = int(gen.integers(1, k))
        dm = degree_map(tb, m)
        got = {tuple(int(v) for v in pref): int(c) for pref, c in zip(dm.prefixes, dm.counts)}
        assert got == dense_degree_counts(dense_b, m)
        checked += 1
    _report(1, "oracle equivalence", checked == 200, clock, f"{checked} instances x 4 ops")


def test_criterion_02_unfolding_correctness():
    clock = _Clock(60.0)
    n = 3
    bijective = True
    for k in range(2, 6):
        for blocks in set_partitions(k):
            part = Partition(blocks)
            images = phi_array(part, np.array(list(itertools.product(range(1, n + 1), repeat=k))), n)
            bijective &= len(set(map(tuple, images.tolist()))) == n**k
    gen = np.random.default_rng(202)
    fro_exact = True
    for _ in range(50):
        t = random_sparse(gen, 3, 4, values="float")
        all_parts = list(set_partitions(3))
        part = Partition(all_parts[int(gen.integers(0, len(all_parts)))])
        view = unfold(t, part)
        fro_exact &= dense_unfolding_holds(view, t.to_dense())
    cfg = PowerIterConfig(restarts=6, seed=SeedSpec(202, 0))
    sandwich_ok = 0
    for s in range(100):
        t = bernoulli_sample(TensorShape(3, 20), Homogeneous(0.2), SeedSpec(2020, s))
        w = center(t, Homogeneous(0.2))
        low = hopm_lower(w, cfg).value
        up = matrix_op_norm(unfold(w, balanced_partition(3, 2)), cfg).value
        if low <= up + 1e-8:
            sandwich_ok += 1
    ok = bijective and fro_exact and sandwich_ok == 100
    _report(2, "unfolding correctness", ok, clock,
            f"bijective={bijective} frobenius_exact={fro_exact} sandwich {sandwich_ok}/100")


def test_criterion_03_spectral_lower_bound():
    clock = _Clock(300.0)
    k, n, p, trials = 3, 200, 0.1, 20
    need = 1.2 * math.sqrt(n * p)
    cfg = PowerIterConfig(restarts=4, seed=SeedSpec(303, 0))
    hits = 0
    worst = math.inf
    for s in range(trials):
        t = bernoulli_sample(TensorShape(k, n), Homogeneous(p), SeedSpec(303, s))
        w = center(t, Homogeneous(p))
        val = slice_lower(w, num_slices=4, seed=SeedSpec(303, s), config=cfg).value
        worst = min(worst, val)
        if val >= need:
            hits += 1
    _report(3, "slice lower bound >= 1.2*sqrt(np)", hits >= 19, clock,
            f"{hits}/{trials} trials, worst={worst:.2f}, need={need:.2f}")


def test_criterion_04_upper_bound_scaling():
    clock = _Clock(600.0)
    k, m, trials = 3, 2, 20
    medians = {}
    worst = 0.0
    for n in (30, 60, 120):
        p = 5 * math.log(n) / n**2
        scale = math.sqrt(n**m * p)
        ratios = []
        for s in range(trials):
            t = bernoulli_sample(TensorShape(k, n), Homogeneous(p), SeedSpec(404, s))
            w = center(t, Homogeneous(p))
            est = spectral_sandwich(
                w, m, PowerIterConfig(restarts=6, seed=SeedSpec(404, s)))
            ratios.append(est.upper / scale)
        medians[n] = sorted(ratios)[trials // 2]
        worst = max(worst, max(ratios))
    spread = max(medians.values()) / min(medians.values())
    ok = worst <= 4.0 and spread < 1.5
    _report(4, "upper-bound scaling C*sqrt(n^m p)", ok, clock,
            f"max ratio={worst:.2f} (<=4.0), medians={ {n: round(v, 3) for n, v in medians.items()} }, "
            f"spread={spread:.2f} (<1.5)")


def test_criterion_05_regularization():
    clock = _Clock(300.0)
    k, m, n, trials = 4, 2, 25, 50
    p = 3 / n**2
    removed_bound = 1.0 / (n ** (2 * m - k) * p)
    scale = math.sqrt(n**m * p)
    removed_ok = degrees_ok = ratio_ok = 0
    worst_ratio = 0.0
    for s in range(trials):
        t = bernoulli_sample(TensorShape(k, n), Homogeneous(p), SeedSpec(505, s))
        reg = regularize(t, m, p)
        if reg.removed_count <= removed_bound:
            removed_ok += 1
        post = degree_map(reg.regularized, m)
        if post.max_degree <= reg.threshold:
            degrees_ok += 1
        w = center(reg.regularized, Homogeneous(p))
        est = spectral_sandwich(w, m, PowerIterConfig(restarts=6, seed=SeedSpec(505, s)))
        ratio = est.upper / scale
        worst_ratio = max(worst_ratio, ratio)
        if ratio <= 10.0:
            ratio_ok += 1
    ok = removed_ok == trials and degrees_ok == trials and ratio_ok == trials
    _report(5, "regularization count/degree/norm", ok, clock,
            f"removed {removed_ok}/{trials} within {removed_bound:.1f}; degrees {degrees_ok}/{trials}; "
            f"worst upper ratio {worst_ratio:.2f} (<=10)")


def test_criterion_06_expander_mixing():
    clock = _Clock(600.0)
    k, c = 3, 40.0
    seeds = 10
    fitted = {}
    degree_ok = True
    violations = 0
    for n in (60, 120):
        p = c / n ** (k - 1)
        cap = 2 * math.factorial(k) * c
        worst_fit = 0.0
        for s in range(seeds):
            h = er_hypergraph(k, n, p, SeedSpec(606, s))
            tprime = expander_construct(adjacency(h), p)
            sampled = mixing_check(tprime, p, SubsetFamilies.sampled(2000), SeedSpec(606, s))
            single = mixing_check(tprime, p, SubsetFamilies.singletons())
            fit = max(sampled.max_ratio, single.max_ratio) / math.sqrt(c)
            worst_fit = max(worst_fit, fit)
            ratios = np.concatenate([sampled.ratio, single.ratio])
            violations += int(np.count_nonzero(ratios > fit * math.sqrt(c) + 1e-12))
            if tprime.nnz and degree_map(tprime, k - 1).max_degree > cap:
                degree_ok = False
        fitted[n] = worst_fit
    stability = fitted[120] / fitted[60]
    ok = (violations == 0 and fitted[60] <= 5.0 and fitted[120] <= 5.0
          and 0.5 <= stability <= 2.0 and degree_ok)
    _report(6, "expander mixing", ok, clock,
            f"fitted_C={ {n: round(v, 3) for n, v in fitted.items()} } (<=5), "
            f"stability x{stability:.2f}, degrees_ok={degree_ok}")


def test_criterion_07_uniform_sparsification():
    clock = _Clock(180.0)
    k, m, n, trials = 3, 2, 60, 20
    p = 5 * math.log(n) / n**2
    scale = math.sqrt(n**m * p)
    base = SparseTensor.all_ones(TensorShape(k, n))
    worst = 0.0
    ok_count = 0
    for s in range(trials):
        kept = sparsify_uniform(base, p, SeedSpec(707, s))
        w = center(kept, Homogeneous(p))  # kept - p*J
        est = spectral_sandwich(w, m, PowerIterConfig(restarts=3, seed=SeedSpec(707, s)))
        ratio = est.upper / scale
        worst = max(worst, ratio)
        if ratio <= 4.0:
            ok_count += 1
    _report(7, "uniform sparsification concentration", ok_count == trials, clock,
            f"worst upper ratio {worst:.2f} (<=4.0) over {trials} trials")


def test_criterion_08_degree_discrepancy_diagnostics():
    clock = _Clock(300.0)
    k, n, seeds = 3, 100, 20
    p = 5 * math.log(n) / n
    degree_hits = disc_hits = 0
    for s in range(seeds):
        t = bernoulli_sample(TensorShape(k, n), Homogeneous(p), SeedSpec(808, s))
        if bounded_degree_check(t, p, 3.0).within:
            degree_hits += 1
        if discrepancy_check(t, p, 20.0, 20.0, 5000, SeedSpec(808, s)).violations == 0:
            disc_hits += 1
    ok = degree_hits >= 19 and disc_hits >= 19
    _report(8, "degree and discrepancy lemmas", ok, clock,
            f"bounded degree {degree_hits}/{seeds}, discrepancy {disc_hits}/{seeds}")


def test_criterion_09_kl_divergence():
    clock = _Clock(5.0)
    hand = kl_bernoulli(Homogeneous(0.5), Homogeneous(0.25), 0.2, 0.8)
    hand_ok = abs(hand.kl - 0.5 * math.log(4.0 / 3.0)) <= 1e-9
    gen = np.random.default_rng(909)
    bound_ok = 0
    for _ in range(1000):
        a = gen.uniform(0.2, 0.8, size=(2, 2))
        b = gen.uniform(0.2, 0.8, size=(2, 2))
        if kl_bernoulli(DenseProbability(a), DenseProbability(b), 0.2, 0.8).within:
            bound_ok += 1
    _report(9, "Bernoulli KL formula and bound", hand_ok and bound_ok == 1000, clock,
            f"hand value ok={hand_ok}, bound held {bound_ok}/1000")


def test_criterion_10_run_determinism(tmp_path):
    clock = _Clock(120.0)
    cfg = {
        "command": "concentration", "k": 3, "n_list": [16, 24], "m": 2,
        "p_rule": {"kind": "fixed", "p": 0.15}, "trials": 4, "base_seed": 1010,
        "estimator": {"restarts": 3}, "out": str(tmp_path / "det.csv"),
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_cli(out, jobs):
        res = subprocess.run(
            [sys.executable, "-m", "tensorconc.cli", "run",
             "--config", str(cfg_path), "--jobs", str(jobs), "--set", f"out={out}"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        with open(out, "rb") as f:
            return [b",".join(ln.split(b",")[:-1]) for ln in f.read().split(b"\n")]

    first = run_cli(tmp_path / "a.csv", 1)
    repeat = run_cli(tmp_path / "b.csv", 1)
    parallel = run_cli(tmp_path / "c.csv", 8)
    ok = first == repeat == parallel and len(first) == 2 + 2 * 4
    _report(10, "byte determinism (wall_ms masked)", ok, clock,
            f"rows={len(first) - 2}, repeat==serial=={'ok' if first == repeat else 'BAD'}, "
            f"jobs8=={'ok' if first == parallel else 'BAD'}")
