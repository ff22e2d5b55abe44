"""Experiment harness: JSON-configured Monte-Carlo sweeps with deterministic
CSV output.

Each (n, trial) pair runs independently under seed (base_seed, trial); n
enters only through the coordinate space, never the seed.  Records are
buffered and written in (n, trial) order, so output bytes are identical
regardless of the worker count or the BLAS thread count (the wall_ms column
is the one field that varies between runs and is masked by determinism
comparisons).
"""

import contextlib
import csv
import json
import math
import operator
import os
import statistics
import sys
import tempfile
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .core import DENSE_GATE, Homogeneous, SparseTensor, TensorShape, _fmt, center
from .diagnostics import bounded_degree_check, discrepancy_check
from .hypergraph import SubsetFamilies, adjacency, mixing_check
from .regularization import degree_map, expander_construct, regularize, removed_count_check
from .rng import SeedSpec
from .sampling import bernoulli_sample, er_hypergraph, sparsify_uniform
from .spectral import NUM_SLICES, PowerIterConfig, brackets, spectral_sandwich

class ConfigError(Exception):
    """Invalid experiment configuration (CLI exit code 2)."""


class CsvFormatError(Exception):
    """Malformed results CSV (CLI exit code 3)."""


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


@dataclass(frozen=True)
class PRule:
    """Sparsity rule p(n): c*log(n)/n^m, c/n^m, or a fixed constant.  Its
    kind and the numbers that kind takes are checked on construction."""

    kind: str
    c: float = 0.0
    m: int = 0
    p: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _P_RULES:  # a list is unhashable
            raise ConfigError(f"unknown p_rule kind {self.kind!r}")
        # m, the one int, is an exponent: a negative one would make p(n) grow
        for key, t in _P_RULES[self.kind].items():
            object.__setattr__(self, key, _number(getattr(self, key), t, f"p_rule.{key}",
                                                  0 if t is int else None))

    def value(self, n: int) -> float:
        if self.kind == "c_logn_over_nm":
            return self.c * math.log(n) / n**self.m
        if self.kind == "c_over_nm":
            return self.c / n**self.m
        return self.p

    @classmethod
    def from_dict(cls, d: dict) -> "PRule":
        """The rule a config object states: a ``kind``, then exactly that kind's numbers."""
        kind = _section("p_rule", d, [f.name for f in fields(cls)], ["kind"])["kind"]
        if isinstance(kind, str) and kind in _P_RULES:  # any other is refused when built
            _section(f"{kind} p_rule", d, ["kind", *_P_RULES[kind]], ["kind", *_P_RULES[kind]])
        return cls(**d)


# p_rule kind -> the numbers it takes, all required
_P_RULES = {"c_logn_over_nm": {"c": float, "m": int}, "c_over_nm": {"c": float, "m": int},
            "fixed": {"p": float}}


@dataclass(frozen=True)
class EstimatorSettings:
    restarts: int = PowerIterConfig.restarts
    # no field or key: perfbench/tracing.py:100 passes it on; goes with that replay (ROADMAP 1a)
    num_slices = NUM_SLICES

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _number(getattr(self, f.name), int,
                                                     f"estimator.{f.name}", 1))

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
    base_seed: int = 0
    estimator: EstimatorSettings = EstimatorSettings()
    out: str = "results.csv"  # a nonempty path: a str or an os.PathLike of one
    params: dict = field(default_factory=dict)  # typed and completed from _PARAMS
    # no field or key: perfbench/tracing.py:96 refuses other values; goes with that replay (ROADMAP 1a)
    partition = None

    def __post_init__(self):
        # every check runs here, so an invalid config is never built
        if self.command not in COMMANDS:  # first: the params table is keyed by it
            raise ConfigError(f"command must be one of {COMMANDS}, got {self.command!r}")
        for name in ("k", "m", "trials", "base_seed"):
            object.__setattr__(self, name, _number(getattr(self, name), int, name))
        object.__setattr__(self, "out", _path(self.out))
        try:
            n_list = tuple(self.n_list)
        except TypeError:
            raise ConfigError(f"n_list must be a list of ints, got {self.n_list!r}") from None
        object.__setattr__(self, "n_list", tuple(_number(n, int, "n_list entry") for n in n_list))
        table = _PARAMS.get(self.command, {})
        raw = _section("params", self.params, table)
        object.__setattr__(self, "params", {
            key: _number(raw.get(key, default), int, f"params.{key}", 1)
            for key, default in table.items()})
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if not self.n_list or list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError("n_list must be nonempty, ascending, duplicate-free")
        if self.n_list[0] < 1 or self.n_list[-1] >= 2**31:
            raise ConfigError(f"n_list entries must lie in [1, 2^31), got {list(self.n_list)}")
        if self.n_list[-1] ** self.k >= 2**63:
            raise ConfigError(f"n^k = {self.n_list[-1]}^{self.k} is not below 2^63")
        # trial t runs under SeedSpec(base_seed, t), whose stream id is below 2^64
        if not 1 <= self.trials <= 2**64:
            raise ConfigError(f"trials must be in [1, 2^64], got {self.trials}")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError(f"base_seed must be in [0, 2^64), got {self.base_seed}")
        if not 1 <= self.m <= self.k - 1:
            raise ConfigError(f"m must be in [1, {self.k - 1}], got {self.m}")
        for n in self.n_list:
            try:
                p = self.p_rule.value(n)
            except OverflowError:  # n^m past the float range
                raise ConfigError(f"p_rule gives no float p at n={n}") from None
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


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config a JSON object states, whose keys and defaults are ``ExperimentConfig``'s fields."""
    schema = fields(ExperimentConfig)
    data = dict(_section("config", data, [f.name for f in schema], [
        f.name for f in schema if f.default is MISSING and f.default_factory is MISSING]))
    if "estimator" in data:
        data["estimator"] = EstimatorSettings(**_section(
            "estimator", data["estimator"], [f.name for f in fields(EstimatorSettings)]))
    try:
        data["p_rule"] = PRule.from_dict(data["p_rule"])
        return ExperimentConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def read_config(path: str, overrides: list | None = None) -> dict:
    """Read a JSON config object and apply ``--set key=value`` overrides.

    A dotted key reaches into nested objects.  A value sets a ``str`` field of
    the schema (``command``, ``out``, ``p_rule.kind``) as the text written,
    and any other key as JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (ValueError, RecursionError) as exc:  # a decode error, a bad byte or too deep a nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        parts = key.split(".")
        schema = ExperimentConfig  # the field type the key names (annotations are classes here)
        for part in parts:
            schema = is_dataclass(schema) and {f.name: f.type for f in fields(schema)}.get(part)
        try:
            value = raw if schema is str else json.loads(raw)
        except (ValueError, RecursionError):
            raise ConfigError(f"--set {key} takes a JSON value, got {raw!r}") from None
        node = data  # the object the key sets in; a non-object on the way is refused
        for part in parts[:-1]:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return data


def load_config(path: str, overrides: list | None = None) -> ExperimentConfig:
    return config_from_dict(read_config(path, overrides))


@dataclass(frozen=True)
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
    return t, {"nnz": t.nnz}


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
        chk = removed_count_check(reg, p)
        aux["removed_bound"] = chk.bound
        aux["removed_within"] = chk.within
    return reg.regularized, aux


def _expander(cfg: ExperimentConfig, n: int, p: float, seed: SeedSpec):
    h = er_hypergraph(cfg.k, n, p, seed)
    tprime = expander_construct(adjacency(h), p)
    aux = {
        "edges": h.num_edges,
        "max_first_mode_degree": degree_map(tprime, cfg.k - 1).max_degree,
        "degree_bound": 2.0 * math.factorial(cfg.k) * n ** (cfg.k - 1) * p,
    }
    if p < 1:
        fam = SubsetFamilies.sampled(cfg.params["mixing_families"])
        report = mixing_check(tprime, p, fam, seed)
        aux["mixing_max_ratio"] = report.max_ratio
        aux["fitted_C"] = report.fitted_c
    return tprime, aux


def _sparsify(cfg: ExperimentConfig, n: int, p: float, seed: SeedSpec):
    base = SparseTensor.all_ones(TensorShape(cfg.k, n))
    kept = sparsify_uniform(base, p, seed)
    return kept, {"kept": kept.nnz, "total": base.nnz}


def _diagnostics(cfg: ExperimentConfig, n: int, p: float, seed: SeedSpec):
    t = bernoulli_sample(TensorShape(cfg.k, n), Homogeneous(p), seed)
    bd = bounded_degree_check(t, p, c1=3.0)
    disc = discrepancy_check(t, p, c2=20.0, c3=20.0, families=cfg.params["families"], seed=seed)
    return None, {
        "nnz": t.nnz,
        "max_degree": bd.max_degree,
        "degree_bound": bd.bound,
        "degree_within": bd.within,
        "disc_violations": disc.violations,
        "fitted_c2": disc.fitted_c2,
        "fitted_c3": disc.fitted_c3,
    }


# command -> trial body: (cfg, n, p, seed) -> (T or None, aux); _run_trial brackets T - pJ
_TRIALS = {
    "concentration": _concentration,
    "regularize": _regularize,
    "expander": _expander,
    "sparsify": _sparsify,
    "diagnostics": _diagnostics,
}
COMMANDS = tuple(_TRIALS)

# command -> its params, {key: default}; each is a count
_PARAMS = {"expander": {"mixing_families": 500}, "diagnostics": {"families": 1000}}


def _section(section: str, raw, known, required=()) -> dict:
    """The config object ``raw``, whose keys must all be ``known`` and include ``required``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be an object, got {raw!r}")
    if unknown := sorted(set(raw) - set(known)):
        raise ConfigError(f"unknown {section} keys: {unknown}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing {section} key: {key}")
    return raw


def _path(raw) -> str:
    """``raw`` as an output path: a nonempty str, or an os.PathLike of one."""
    path = os.fspath(raw) if isinstance(raw, (str, os.PathLike)) else None
    if not isinstance(path, str) or not path:
        raise ConfigError(f"out must be a path, got {raw!r}")
    return path


def _run_trial(cfg: ExperimentConfig, n: int, trial: int) -> ResultRecord:
    start = time.perf_counter()
    seed = SeedSpec(cfg.base_seed, trial)
    p = cfg.p_rule.value(n)
    t, aux = _TRIALS[cfg.command](cfg, n, p, seed)
    lower = upper = 0.0
    if t is not None:
        est = spectral_sandwich(center(t, Homogeneous(p)), cfg.m, cfg.estimator.power_config(seed))
        lower, upper = est.lower, est.upper
        aux.update(est.bounds, lower_converged=est.lower_converged,
                   upper_converged=est.upper_converged)
    sqrt_nmp = math.sqrt(n**cfg.m * p)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return ResultRecord(
        command=cfg.command, k=cfg.k, n=n, p=p, m=cfg.m, trial=trial,
        seed=f"{cfg.base_seed}:{trial}",
        lower=lower, upper=upper, sqrt_nmp=sqrt_nmp,
        ratio_lower=lower / sqrt_nmp, ratio_upper=upper / sqrt_nmp,
        aux=aux, wall_ms=wall_ms,
    )


def run(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """Execute every (n, trial) cell, write the CSV to ``cfg.out`` and a JSON
    summary beside it; ``jobs < 1``, an unwritable output directory or an
    output path (CSV or summary) that is a directory raises first.

    Output is a pure function of the config: with ``jobs > 1`` the calling
    process and ``jobs - 1`` spawned workers take the trials from one shared
    counter, never more processes than there are trials or usable CPUs (see
    ``_run_in_processes``), but records are emitted in (n, trial) order.  A
    script that calls this with ``jobs > 1`` needs an
    ``if __name__ == "__main__":`` guard, since each spawned worker imports
    the script's main module.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    tempfile.TemporaryFile(dir=os.path.dirname(cfg.out) or ".").close()  # the directory takes a file
    for target in (cfg.out, cfg.out + ".summary.json"):
        if os.path.isdir(target):
            raise IsADirectoryError(f"output path is a directory: {target}")
    tasks = [(n, trial) for n in cfg.n_list for trial in range(cfg.trials)]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        records = _run_in_processes(cfg, tasks, workers)
    else:
        records = [_run_trial(cfg, n, trial) for n, trial in tasks]
    with open(cfg.out, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.csv_row())
    write_summary(cfg.out, cfg.out + ".summary.json")
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


def write_summary(csv_path: str, out: str | None = None) -> None:
    """Write ``summarize(csv_path)`` as JSON (sorted keys, two-space indent, a
    trailing newline) to the path ``out``, or to stdout when it is None."""
    out = None if out is None else _path(out)
    summary = summarize(csv_path)
    with open(out, "w", encoding="ascii") if out else contextlib.nullcontext(sys.stdout) as f:
        f.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def summarize(csv_path: str) -> dict:
    """Deterministic aggregation of a results CSV: per-n medians/maxima of the
    ratio columns, fitted constants, sandwich-violation counts, and counts of
    rows whose lower or upper estimate did not converge (from ``aux``).  A
    row that does not parse is named by its number (the first row after the
    header is 1) and field, not by its text."""
    try:
        with open(csv_path, "r", encoding="ascii", newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CsvFormatError(f"cannot read {csv_path}: {exc}") from exc
    if rows[:1] != [CSV_HEADER]:
        raise CsvFormatError(f"{csv_path} header mismatch: {rows[0] if rows else 'no header row'}")
    body = rows[1:]
    per_n: dict = {}
    violations = 0
    nonconverged_lower = nonconverged_upper = 0
    for number, row in enumerate(body, start=1):
        if len(row) != len(CSV_HEADER):
            raise CsvFormatError(f"row has {len(row)} fields, expected {len(CSV_HEADER)}")
        rec = dict(zip(CSV_HEADER, row))
        for field, read in (("n", int), ("lower", float), ("upper", float), ("ratio_lower", float),
                            ("ratio_upper", float), ("aux", json.loads)):
            try:
                rec[field] = read(rec[field])
            except (ValueError, RecursionError) as exc:  # its text may quote the whole field
                raise CsvFormatError(f"unparsable row {number}: bad {field}") from exc
        aux = rec["aux"]
        if not isinstance(aux, dict):
            raise CsvFormatError(f"aux is not a JSON object in row {number}")
        violations += not brackets(rec["lower"], rec["upper"])
        nonconverged_lower += aux.get("lower_converged") is False
        nonconverged_upper += aux.get("upper_converged") is False
        bucket = per_n.setdefault(rec["n"], {"ratio_lower": [], "ratio_upper": []})
        bucket["ratio_lower"].append(rec["ratio_lower"])
        bucket["ratio_upper"].append(rec["ratio_upper"])
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
