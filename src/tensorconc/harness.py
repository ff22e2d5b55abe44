"""Experiment harness: JSON-configured Monte-Carlo sweeps with deterministic
CSV output.

Each (n, trial) pair runs independently under seed (base_seed, trial); n
enters only through the coordinate space, never the seed.  Records are
buffered and written in (n, trial) order, so output bytes are identical
regardless of the worker count or the BLAS thread count (the wall_ms column
is the one field that varies between runs and is masked by determinism
comparisons).
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import statistics
import time
from dataclasses import dataclass, field, fields

from .core import DENSE_GATE, Homogeneous, SparseTensor, TensorShape, _fmt, center
from .diagnostics import bounded_degree_check, discrepancy_check
from .hypergraph import SubsetFamilies, adjacency, mixing_check
from .regularization import degree_map, expander_construct, regularize, removed_count_check
from .rng import SeedSpec
from .sampling import bernoulli_sample, er_hypergraph, sparsify_uniform
from .spectral import SANDWICH_SLACK, PowerIterConfig, matrix_op_norm, spectral_sandwich
from .unfolding import Partition, unfold

class ConfigError(Exception):
    """Invalid experiment configuration (CLI exit code 2)."""


class CsvFormatError(Exception):
    """Malformed results CSV (CLI exit code 3)."""


@dataclass(frozen=True)
class PRule:
    """Sparsity rule p(n): c*log(n)/n^m, c/n^m, or a fixed constant."""

    kind: str
    c: float = 0.0
    m: int = 0
    p: float = 0.0

    def value(self, n: int) -> float:
        if self.kind == "c_logn_over_nm":
            return self.c * math.log(n) / n**self.m
        if self.kind == "c_over_nm":
            return self.c / n**self.m
        if self.kind == "fixed":
            return self.p
        raise ConfigError(f"unknown p_rule kind {self.kind!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "PRule":
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError(f"p_rule must be an object with a 'kind', got {d!r}")
        kind = d["kind"]
        if kind not in _P_RULES:
            raise ConfigError(f"unknown p_rule kind {kind!r}")
        table = _P_RULES[kind]
        if set(d) != {"kind", *table}:
            raise ConfigError(f"{kind} p_rule takes exactly {sorted(table)}, "
                              f"got {sorted(set(d) - {'kind'})}")
        return cls(kind, **{key: _number(d[key], t, f"p_rule.{key}") for key, t in table.items()})


# p_rule kind -> the numbers it takes, all required
_P_RULES = {"c_logn_over_nm": {"c": float, "m": int}, "c_over_nm": {"c": float, "m": int},
            "fixed": {"p": float}}


@dataclass(frozen=True)
class EstimatorSettings:
    restarts: int = 16
    num_slices: int = 4

    def power_config(self, seed: SeedSpec) -> PowerIterConfig:
        return PowerIterConfig(restarts=self.restarts, seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    k: int
    n_list: tuple
    p_rule: PRule
    m: int
    trials: int
    base_seed: int
    estimator: EstimatorSettings = EstimatorSettings()
    out: str = "results.csv"
    partition: object = None  # optional Partition override for the upper bound
    params: dict = field(default_factory=dict)  # typed and completed from _PARAMS

    def __post_init__(self):
        # every check runs here, so an invalid config is never built
        object.__setattr__(self, "params",
                           _read_table("params", _PARAMS.get(self.command, {}), self.params))
        if self.command not in COMMANDS:
            raise ConfigError(f"command must be one of {COMMANDS}, got {self.command!r}")
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if not self.n_list or list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError("n_list must be nonempty, ascending, duplicate-free")
        if self.n_list[0] < 1 or self.n_list[-1] >= 2**31:
            raise ConfigError(f"n_list entries must lie in [1, 2^31), got {list(self.n_list)}")
        if self.n_list[-1] ** self.k >= 2**63:
            raise ConfigError(f"n^k = {self.n_list[-1]}^{self.k} is not below 2^63")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError(f"base_seed must be in [0, 2^64), got {self.base_seed}")
        if not 1 <= self.m <= self.k - 1:
            raise ConfigError(f"m must be in [1, {self.k - 1}], got {self.m}")
        for n in self.n_list:
            p = self.p_rule.value(n)
            if not 0.0 < p <= 1.0:
                raise ConfigError(f"p_rule gives p={p} outside (0, 1] at n={n}")
        if self.command == "expander" and self.m != self.k - 1:
            raise ConfigError("expander runs use m = k - 1")
        if self.command == "expander" and self.n_list[0] < self.k:
            raise ConfigError(f"expander edges are k-subsets of [n]; "
                              f"n = {self.n_list[0]} < k = {self.k}")
        if self.command == "sparsify" and max(self.n_list) ** self.k > DENSE_GATE:
            raise ConfigError(f"sparsify lists all n^k entries; n = {max(self.n_list)} is "
                              f"above the dense gate n^k <= {DENSE_GATE}")
        if self.partition is not None:
            if self.partition.order != self.k:
                raise ConfigError(
                    f"partition covers [{self.partition.order}] but k = {self.k}")
            if self.partition.arity != 2:
                raise ConfigError("partition override must have exactly two blocks")


def config_from_dict(data: dict, command: str | None = None) -> ExperimentConfig:
    data = dict(data)
    cmd = data.pop("command", None)
    if command is not None:
        if cmd is not None and cmd != command:
            raise ConfigError(f"config command {cmd!r} conflicts with CLI command {command!r}")
        cmd = command
    if cmd is None:
        raise ConfigError("no command given")
    est = EstimatorSettings(**_read_table("estimator", _ESTIMATOR, data.pop("estimator", {})))
    part = data.pop("partition", None)
    if part is not None:
        try:
            part = Partition([[_number(i, int, "partition entry") for i in b] for b in part])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad partition: {exc}") from exc
    try:
        cfg = ExperimentConfig(
            command=cmd,
            k=_number(data.pop("k"), int, "k"),
            n_list=tuple(_number(n, int, "n_list entry") for n in data.pop("n_list")),
            p_rule=PRule.from_dict(data.pop("p_rule")),
            m=_number(data.pop("m"), int, "m"),
            trials=_number(data.pop("trials"), int, "trials"),
            base_seed=_number(data.pop("base_seed", 0), int, "base_seed"),
            estimator=est,
            out=str(data.pop("out", "results.csv")),
            partition=part,
            params=data.pop("params", {}),
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if data:
        raise ConfigError(f"unknown config keys: {sorted(data)}")
    return cfg


def read_config(path: str, overrides: list | None = None) -> dict:
    """Read a JSON config object and apply ``--set key=value`` overrides.

    A dotted key reaches into nested objects; a value that does not parse as
    JSON is kept as a string.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return data


def load_config(path: str, command: str | None = None, overrides: list | None = None) -> ExperimentConfig:
    return config_from_dict(read_config(path, overrides), command)


@dataclass
class ResultRecord:
    command: str
    k: int
    n: int
    p: float
    m: int
    trial: int
    seed: str
    lower: float
    upper: float
    sqrt_nmp: float
    ratio_lower: float
    ratio_upper: float
    aux: dict
    wall_ms: float

    def csv_row(self) -> list:
        """Fields as text: floats by ``_fmt``, ``aux`` as compact sorted JSON, the rest by ``str``."""
        row = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                row.append(_fmt(value))
            elif isinstance(value, dict):
                row.append(json.dumps(value, sort_keys=True, separators=(",", ":")))
            else:
                row.append(str(value))
        return row


CSV_HEADER = [f.name for f in fields(ResultRecord)]


def _concentration(cfg: ExperimentConfig, n: int, p: float, seed: SeedSpec):
    t = bernoulli_sample(TensorShape(cfg.k, n), Homogeneous(p), seed)
    return center(t, Homogeneous(p)), {"nnz": t.nnz}


def _regularize(cfg: ExperimentConfig, n: int, p: float, seed: SeedSpec):
    t = bernoulli_sample(TensorShape(cfg.k, n), Homogeneous(p), seed)
    reg = regularize(t, cfg.m, p)
    aux = {
        "nnz": t.nnz,
        "removed": reg.removed_count,
        "threshold": reg.threshold,
        "max_prefix_degree": degree_map(reg.regularized, cfg.m).max_degree,
    }
    if reg.in_guarantee_regime:
        chk = removed_count_check(reg, n, p)
        aux["removed_bound"] = chk.bound
        aux["removed_within"] = chk.within
    return center(reg.regularized, Homogeneous(p)), aux


def _expander(cfg: ExperimentConfig, n: int, p: float, seed: SeedSpec):
    h = er_hypergraph(cfg.k, n, p, seed)
    tprime = expander_construct(adjacency(h), p)
    aux = {
        "edges": h.num_edges,
        "max_first_mode_degree": degree_map(tprime, cfg.k - 1).max_degree if tprime.nnz else 0,
        "degree_bound": 2.0 * math.factorial(cfg.k) * n ** (cfg.k - 1) * p,
    }
    if 0 < p < 1:
        fam = SubsetFamilies.sampled(cfg.params["mixing_families"])
        report = mixing_check(tprime, p, fam, seed)
        aux["mixing_max_ratio"] = report.max_ratio
        aux["fitted_C"] = report.fitted_c
    return center(tprime, Homogeneous(p)), aux


def _sparsify(cfg: ExperimentConfig, n: int, p: float, seed: SeedSpec):
    base = SparseTensor.all_ones(TensorShape(cfg.k, n))
    kept = sparsify_uniform(base, p, seed)
    return center(kept, Homogeneous(p)), {"kept": kept.nnz, "total": base.nnz}


def _diagnostics(cfg: ExperimentConfig, n: int, p: float, seed: SeedSpec):
    t = bernoulli_sample(TensorShape(cfg.k, n), Homogeneous(p), seed)
    bd = bounded_degree_check(t, p, cfg.params["c1"])
    disc = discrepancy_check(t, p, cfg.params["c2"], cfg.params["c3"],
                             cfg.params["families"], seed)
    return None, {
        "nnz": t.nnz,
        "max_degree": bd.max_degree,
        "degree_bound": bd.bound,
        "degree_within": bd.within,
        "disc_violations": disc.violations,
        "fitted_c2": disc.fitted_c2,
        "fitted_c3": disc.fitted_c3,
    }


# command -> trial body: (cfg, n, p, seed) -> (tensor to bracket or None, aux fields)
_TRIALS = {
    "concentration": _concentration,
    "regularize": _regularize,
    "expander": _expander,
    "sparsify": _sparsify,
    "diagnostics": _diagnostics,
}
COMMANDS = tuple(_TRIALS)

# Typed tables of config sections, {key: (type, default)}; every int in them is a count.
# command -> its params
_PARAMS = {
    "expander": {"mixing_families": (int, 500)},
    "diagnostics": {"c1": (float, 3.0), "c2": (float, 20.0), "c3": (float, 20.0),
                    "families": (int, 1000)},
}
_ESTIMATOR = {f.name: (int, f.default) for f in fields(EstimatorSettings)}


def _number(raw, kind: type, name: str, least: int | None = None):
    """``raw`` as an ``int`` (a JSON integer) or a ``float`` (any JSON number),
    at least ``least`` if given: no bool, no rounding, no string parsing."""
    try:  # operator.index takes integers alone
        value = (operator.index if kind is int else float)(raw)
        ok = not isinstance(raw, bool) and value == raw and (least is None or value >= least)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        want = "a number" if kind is float else "an int" if least is None else f"an int >= {least}"
        raise ConfigError(f"{name} must be {want}, got {raw!r}")
    return value


def _read_table(section: str, table: dict, raw) -> dict:
    """The config object ``raw`` typed by ``table`` and completed with its defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {unknown}; known: {sorted(table)}")
    return {key: _number(raw.get(key, default), kind, f"{section}.{key}",
                         1 if kind is int else None)
            for key, (kind, default) in table.items()}


def _run_trial(cfg: ExperimentConfig, n: int, trial: int) -> ResultRecord:
    start = time.perf_counter()
    seed = SeedSpec(cfg.base_seed, trial)
    p = cfg.p_rule.value(n)
    w, aux = _TRIALS[cfg.command](cfg, n, p, seed)
    lower = upper = 0.0
    if w is not None:
        pconf = cfg.estimator.power_config(seed)
        est = spectral_sandwich(w, cfg.m, pconf, num_slices=cfg.estimator.num_slices)
        lower, upper = est.lower, est.upper
        aux.update(hopm=est.hopm_value, lower_converged=est.lower_converged,
                   upper_converged=est.upper_converged)
        if est.slice_value is not None:
            aux["slice"] = est.slice_value
        if est.chain_upper is not None:
            aux["chain_upper"] = est.chain_upper
        if cfg.partition is not None and cfg.partition != est.upper_partition:
            aux["partition_upper"] = matrix_op_norm(unfold(w, cfg.partition), pconf).value
    sqrt_nmp = math.sqrt(n**cfg.m * p)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return ResultRecord(
        command=cfg.command, k=cfg.k, n=n, p=p, m=cfg.m, trial=trial,
        seed=f"{cfg.base_seed}:{trial}",
        lower=lower, upper=upper, sqrt_nmp=sqrt_nmp,
        ratio_lower=lower / sqrt_nmp if sqrt_nmp > 0 else 0.0,
        ratio_upper=upper / sqrt_nmp if sqrt_nmp > 0 else 0.0,
        aux=aux, wall_ms=wall_ms,
    )


def run(cfg: ExperimentConfig, jobs: int = 1, out: str | None = None) -> list:
    """Execute every (n, trial) cell, write the CSV and a JSON summary.

    Output is a pure function of the config: with ``jobs > 1`` the calling
    process and ``jobs - 1`` spawned workers take the trials from one shared
    counter, never more processes than there are trials or usable CPUs (see
    ``_run_in_processes``), but records are emitted in (n, trial) order.  A
    script that calls this with ``jobs > 1`` needs an
    ``if __name__ == "__main__":`` guard, since each spawned worker imports
    the script's main module.
    """
    tasks = [(n, trial) for n in cfg.n_list for trial in range(cfg.trials)]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        records = _run_in_processes(cfg, tasks, workers)
    else:
        records = [_run_trial(cfg, n, trial) for n, trial in tasks]
    path = out or cfg.out
    with open(path, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.csv_row())
    summary = summarize(path)
    with open(path + ".summary.json", "w", encoding="ascii") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    return records


def _usable_cpus() -> int:
    """CPUs this process may run on: a worker past that count only adds its
    start-up cost (about 0.3 s of imports)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Each worker process runs one trial at a time, so it gets one BLAS thread.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# A spawned worker's task counter, set by the pool's initializer: a
# synchronized value cannot be pickled into a submitted call.
_counter = None


def _share_counter(counter) -> None:
    global _counter
    _counter = counter


def _claim_trials(cfg: ExperimentConfig, tasks: list, counter=None) -> list:
    """``(index, record)`` of each task this process claims from ``counter``
    (the worker's shared one by default), one at a time, until it passes
    the end.  A trial that raises first moves the counter to the end, so the
    other processes stop after their current trial."""
    counter = _counter if counter is None else counter
    done = []
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(tasks):
            return done
        try:
            done.append((index, _run_trial(cfg, *tasks[index])))
        except BaseException:
            counter.value = len(tasks)
            raise


def _run_in_processes(cfg: ExperimentConfig, tasks: list, workers: int) -> list:
    """Run ``_run_trial`` over ``tasks`` in the caller and ``workers - 1``
    spawned processes, each claiming the next unstarted task from one
    shared counter; the records come back in task order.

    The caller starts at once, while each worker spends about 0.3 s booting.
    BLAS reads its thread count from the environment when numpy loads, so
    ``_WORKER_ENV`` is set while the pool spawns its workers (one per
    submit) and restored afterwards; the caller keeps its own BLAS threads.
    A trial that raises, here or in a worker, re-raises here once the other
    processes have finished their current trial; a worker that dies raises
    ``BrokenProcessPool``.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a config that cannot be pickled for the workers stops the sweep before its first trial
    multiprocessing.reduction.ForkingPickler.dumps(cfg)
    ctx = multiprocessing.get_context("spawn")
    counter = ctx.Value("q", 0)
    pool = ProcessPoolExecutor(max_workers=workers - 1, mp_context=ctx,
                               initializer=_share_counter, initargs=(counter,))
    try:
        saved = {name: os.environ.get(name) for name in _WORKER_ENV}
        os.environ.update(_WORKER_ENV)
        try:
            futures = [pool.submit(_claim_trials, cfg, tasks) for _ in range(workers - 1)]
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
        done = _claim_trials(cfg, tasks, counter)
        for f in futures:
            done += f.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return [record for _, record in sorted(done, key=operator.itemgetter(0))]


def summarize(csv_path: str) -> dict:
    """Deterministic aggregation of a results CSV: per-n medians/maxima of the
    ratio columns, fitted constants, sandwich-violation counts, and counts of
    rows whose lower or upper estimate did not converge (from ``aux``)."""
    try:
        with open(csv_path, "r", encoding="ascii", newline="") as f:
            reader = csv.reader(f)
            rows = list(reader)
    except OSError as exc:
        raise CsvFormatError(f"cannot read {csv_path}: {exc}") from exc
    if not rows:
        raise CsvFormatError(f"{csv_path} has no header row")
    if rows[0] != CSV_HEADER:
        raise CsvFormatError(f"{csv_path} header mismatch: {rows[0]}")
    body = rows[1:]
    per_n: dict = {}
    violations = 0
    nonconverged_lower = nonconverged_upper = 0
    for row in body:
        if len(row) != len(CSV_HEADER):
            raise CsvFormatError(f"row has {len(row)} fields, expected {len(CSV_HEADER)}")
        rec = dict(zip(CSV_HEADER, row))
        try:
            n = int(rec["n"])
            lower, upper = float(rec["lower"]), float(rec["upper"])
            ratio_lower, ratio_upper = float(rec["ratio_lower"]), float(rec["ratio_upper"])
            aux = json.loads(rec["aux"])
        except ValueError as exc:
            raise CsvFormatError(f"unparsable row {row!r}: {exc}") from exc
        if not isinstance(aux, dict):
            raise CsvFormatError(f"aux is not a JSON object in row {row!r}")
        if lower > upper + SANDWICH_SLACK:
            violations += 1
        if aux.get("lower_converged") is False:
            nonconverged_lower += 1
        if aux.get("upper_converged") is False:
            nonconverged_upper += 1
        bucket = per_n.setdefault(n, {"ratio_lower": [], "ratio_upper": []})
        bucket["ratio_lower"].append(ratio_lower)
        bucket["ratio_upper"].append(ratio_upper)
    out = {
        "rows": len(body),
        "violations": violations,
        "nonconverged_lower": nonconverged_lower,
        "nonconverged_upper": nonconverged_upper,
        "per_n": {},
    }
    for n in sorted(per_n):
        rl, ru = per_n[n]["ratio_lower"], per_n[n]["ratio_upper"]
        out["per_n"][str(n)] = {
            "count": len(rl),
            "median_ratio_lower": statistics.median(rl),
            "max_ratio_lower": max(rl),
            "median_ratio_upper": statistics.median(ru),
            "max_ratio_upper": max(ru),
        }
    if body:
        out["fitted"] = {
            "max_ratio_upper": max(max(b["ratio_upper"]) for b in per_n.values()),
            "min_ratio_lower": min(min(b["ratio_lower"]) for b in per_n.values()),
        }
    return out
