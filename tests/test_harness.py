import csv
import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from tensorconc import ConfigError, harness, load_config, run, summarize
from tensorconc.harness import CSV_HEADER, config_from_dict


def _base_config(**over):
    cfg = {
        "command": "concentration",
        "k": 3,
        "n_list": [8, 10],
        "m": 2,
        "p_rule": {"kind": "fixed", "p": 0.2},
        "trials": 2,
        "base_seed": 5,
        "estimator": {"restarts": 3},
        "out": "results.csv",
    }
    cfg.update(over)
    return cfg


def _masked(path):
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    return [b",".join(ln.split(b",")[:-1]) for ln in lines]


class TestConfig:
    def test_valid_roundtrip(self):
        cfg = config_from_dict(_base_config())
        assert cfg.command == "concentration"
        assert cfg.p_rule.value(10) == 0.2

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(command="nope"))

    def test_bad_n_list(self):
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(n_list=[10, 8]))
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(n_list=[]))

    def test_p_rule_out_of_range(self):
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(p_rule={"kind": "fixed", "p": 1.5}))
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(p_rule={"kind": "c_over_nm", "c": 0.0, "m": 2}))

    @pytest.mark.parametrize("rule,match", [
        ({"kind": "fixed", "p": 0.2, "m": 2},
         r"fixed p_rule takes exactly \['p'\], got \['m', 'p'\]"),
        ({"kind": "c_over_nm", "c": 1.0}, "c_over_nm p_rule takes exactly"),
        ({"kind": "c_logn_over_nm", "c": 1.0, "m": 2, "p": 0.1}, "takes exactly"),
        ({"kind": "c_logn_over_nm", "c": 1.0, "m": 2.0}, "p_rule.m must be an int"),
        ({"kind": "nope"}, "unknown p_rule kind"),
    ])
    def test_p_rule_keys_exact(self, rule, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(_base_config(p_rule=rule))

    def test_invalid_config_cannot_be_built(self):
        cfg = config_from_dict(_base_config())
        for over in ({"trials": 0}, {"base_seed": -1}, {"m": 3}):
            with pytest.raises(ConfigError):
                dataclasses.replace(cfg, **over)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(bogus=1))

    def test_log_rule_values(self):
        cfg = config_from_dict(_base_config(p_rule={"kind": "c_logn_over_nm", "c": 5, "m": 2}))
        assert cfg.p_rule.value(10) == pytest.approx(5 * np.log(10) / 100)

    @pytest.mark.parametrize("bad", [
        {"matrix_tol": 1e-10}, {"tensor_tol": 1e-8}, {"max_iterations": 500},
        {"restarts": 4, "max_iterations": 500}])
    def test_bad_estimator_settings(self, bad):
        with pytest.raises(ConfigError, match="unknown estimator keys"):
            config_from_dict(_base_config(estimator=bad))

    @pytest.mark.parametrize("key", ["restarts", "num_slices"])
    def test_estimator_counts_at_least_1(self, key):
        with pytest.raises(ConfigError, match=f"estimator.{key} must be an int >= 1, got 0"):
            config_from_dict(_base_config(estimator={key: 0}))

    def test_params_typed_with_defaults(self):
        cfg = config_from_dict(_base_config(command="diagnostics", m=1,
                                            params={"families": 100, "c1": 4}))
        assert cfg.params == {"c1": 4.0, "c2": 20.0, "c3": 20.0, "families": 100}
        assert isinstance(cfg.params["c1"], float)
        assert config_from_dict(_base_config(command="expander")).params == {
            "mixing_families": 500}
        assert config_from_dict(_base_config()).params == {}

    @pytest.mark.parametrize("command,params,match", [
        ("diagnostics", {"familes": 10}, "unknown params"),
        ("concentration", {"families": 10}, "unknown params"),
        ("diagnostics", {"families": "abc"}, "must be an int >= 1"),
        ("diagnostics", {"families": 2.5}, "must be an int >= 1"),
        ("diagnostics", {"families": True}, "must be an int >= 1"),
        ("diagnostics", {"families": float("inf")}, "must be an int >= 1"),
        ("diagnostics", {"c2": "x"}, "must be a number"),
        ("diagnostics", {"c3": float("nan")}, "must be a number"),
        ("diagnostics", {"families": 0}, "must be an int >= 1"),
        ("expander", {"mixing_families": -3}, "must be an int >= 1"),
    ])
    def test_bad_params(self, command, params, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(_base_config(command=command, m=1 if command == "diagnostics" else 2,
                                          params=params))

    def test_sparsify_above_dense_gate(self):
        config_from_dict(_base_config(command="sparsify", n_list=[8, 100]))  # 100^3 = 10^6
        with pytest.raises(ConfigError, match="dense gate"):
            config_from_dict(_base_config(command="sparsify", n_list=[8, 101]))

    def test_set_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_base_config()))
        cfg = load_config(str(path), overrides=["trials=5", "estimator.restarts=2"])
        assert cfg.trials == 5
        assert cfg.estimator.restarts == 2


class TestRun:
    def test_trivial_config_zero_row(self, tmp_path):
        # p = 1 makes T = J surely, so the centered tensor is exactly zero
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(
            command="concentration", k=2, n_list=[8], m=1,
            p_rule={"kind": "fixed", "p": 1.0}, trials=1, out=str(out)))
        records = run(cfg)
        assert len(records) == 1
        assert records[0].lower == 0.0 and records[0].upper == 0.0

    def test_row_count_and_order(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(out=str(out)))
        records = run(cfg)
        assert len(records) == 4
        assert [(r.n, r.trial) for r in records] == [(8, 0), (8, 1), (10, 0), (10, 1)]
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 5

    def test_sandwich_rows_consistent(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(out=str(out)))
        for rec in run(cfg):
            assert rec.lower <= rec.upper + 1e-8

    def test_determinism_repeat(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = config_from_dict(_base_config())
        run(cfg, out=str(a))
        run(cfg, out=str(b))
        assert _masked(a) == _masked(b)

    def test_determinism_jobs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = config_from_dict(_base_config())
        run(cfg, jobs=1, out=str(a))
        run(cfg, jobs=8, out=str(b))
        assert _masked(a) == _masked(b)

    def test_regularize_command(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(
            command="regularize", k=4, n_list=[6], m=2,
            p_rule={"kind": "c_over_nm", "c": 3.0, "m": 2}, trials=2, out=str(out)))
        for rec in run(cfg):
            assert "removed" in rec.aux
            assert rec.aux["max_prefix_degree"] <= rec.aux["threshold"]

    def test_expander_command(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(
            command="expander", k=3, n_list=[12], m=2,
            p_rule={"kind": "c_over_nm", "c": 6.0, "m": 2}, trials=2, out=str(out),
            params={"mixing_families": 50}))
        for rec in run(cfg):
            assert rec.aux["max_first_mode_degree"] <= rec.aux["degree_bound"]
            assert "fitted_C" in rec.aux

    def test_sparsify_command(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(
            command="sparsify", k=3, n_list=[8], m=2,
            p_rule={"kind": "fixed", "p": 0.3}, trials=2, out=str(out)))
        for rec in run(cfg):
            assert 0 <= rec.aux["kept"] <= rec.aux["total"] == 512

    def test_partition_override(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(
            n_list=[8], trials=1, out=str(out), partition=[[1, 3], [2]]))
        rec = run(cfg)[0]
        assert rec.aux["partition_upper"] >= rec.lower - 1e-8

    def test_partition_override_jobs(self, tmp_path):
        # the config crosses to worker processes by pickle, Partition included
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = config_from_dict(_base_config(n_list=[8], partition=[[1, 3], [2]]))
        run(cfg, jobs=1, out=str(a))
        run(cfg, jobs=2, out=str(b))
        assert _masked(a) == _masked(b)
        assert "partition_upper" in _masked(b)[1].decode()

    def test_workers_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        def no_pool(*args):
            raise AssertionError("worker processes started on a one-CPU host")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "_run_in_processes", no_pool)
        records = run(config_from_dict(_base_config(out=str(tmp_path / "r.csv"))), jobs=4)
        assert len(records) == 4

    def test_partition_override_validated(self):
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(partition=[[1], [2]]))  # covers [2], k=3
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(partition=[[1], [2], [3]]))

    def test_diagnostics_command(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(
            command="diagnostics", k=3, n_list=[20], m=1,
            p_rule={"kind": "c_logn_over_nm", "c": 5.0, "m": 1},
            trials=2, out=str(out), params={"families": 100}))
        for rec in run(cfg):
            assert rec.aux["degree_within"] in (True, False)
            assert rec.aux["disc_violations"] >= 0


class TestWorkers:
    # Each run happens in a subprocess whose timeout turns a hang into a failure.
    SCRIPT = textwrap.dedent("""
        import os
        from tensorconc.harness import config_from_dict, run

        os.sched_getaffinity = lambda pid: set(range(4))  # use the pool on any host

        class Die:
            def __reduce__(self):  # a worker that unpickles this exits at once
                return (os._exit, (3,))

        cfg = config_from_dict({cfg!r})
        cfg.params.update({params!r})  # after the load-time check
        if {die!r}:
            cfg.params["die"] = Die()
        try:
            run(cfg, jobs={jobs})
        except Exception as exc:
            print(type(exc).__name__, exc)
    """)

    # Wraps _run_trial in the caller alone (spawned workers import the
    # unwrapped one) and records the pool's size; a raised error is printed
    # before the caller's trial count.
    SHARED = textwrap.dedent("""
        import concurrent.futures, os, time
        from tensorconc import harness

        os.sched_getaffinity = lambda pid: set(range(4))
        calls, sizes, inner = [], [], harness._run_trial

        def caller_trial(cfg, n, trial):
            calls.append((n, trial))
            time.sleep({delay})
            return inner(cfg, n, trial)

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        harness._run_trial = caller_trial
        concurrent.futures.ProcessPoolExecutor = Pool
        cfg = harness.config_from_dict({cfg!r})
        cfg.params.update({params})  # after the load-time check
        try:
            harness.run(cfg, jobs={jobs})
        except Exception as exc:
            print(type(exc).__name__, end=" ")
        print(len(calls), sizes)
    """)

    def _python(self, script):
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        # the task counter's semaphore is released on every path
        assert "resource_tracker" not in res.stderr, res.stderr
        return res.stdout.strip()

    def _error(self, cfg, jobs, die=False, params=None):
        return self._python(self.SCRIPT.format(cfg=cfg, jobs=jobs, die=die, params=params or {}))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trial_error_propagates(self, tmp_path, jobs):
        # a zero family count set past the load-time check raises inside the
        # trial (SubsetFamilies.sampled), in the caller or the worker at jobs=2
        cfg = _base_config(command="expander", n_list=[8], out=str(tmp_path / "r.csv"))
        error = self._error(cfg, jobs, params={"mixing_families": 0})
        assert error.startswith("ValueError") and "count must be >= 1" in error

    def test_worker_death_raises(self, tmp_path):
        cfg = _base_config(out=str(tmp_path / "r.csv"))
        assert self._error(cfg, 2, die=True).startswith("BrokenProcessPool")

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_caller_and_workers_share_one_counter(self, tmp_path, jobs):
        # the caller sleeps 1 s before each of its trials, so the workers,
        # once booted, take the rest of the 8
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(config_from_dict(_base_config(trials=4)), jobs=1, out=str(a))
        cfg = _base_config(trials=4, out=str(b))
        out = self._python(self.SHARED.format(cfg=cfg, jobs=jobs, delay=1.0, params="{}"))
        calls, sizes = out.split(" ", 1)
        assert _masked(a) == _masked(b)
        assert 1 <= int(calls) < 8 and sizes == f"[{jobs - 1}]"

    def test_unpicklable_config_raises_before_any_trial(self, tmp_path):
        # a lambda cannot be pickled for the workers: the sweep stops before
        # the caller runs any of the 8 trials, and no pool is started
        cfg = _base_config(trials=4, out=str(tmp_path / "r.csv"))
        script = self.SHARED.format(cfg=cfg, jobs=2, delay=0.0, params='{"f": lambda: 0}')
        assert self._python(script) == "PicklingError 0 []"

    def test_environment_restored(self, tmp_path):
        before = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        run(config_from_dict(_base_config(n_list=[8], out=str(tmp_path / "r.csv"))), jobs=2)
        assert {k: os.environ.get(k) for k in before} == before


class TestSummarize:
    def test_empty_body(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        out = summarize(str(path))
        assert out["rows"] == 0 and out["per_n"] == {}

    def test_single_row_median_equals_max(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(n_list=[8], trials=1, out=str(out)))
        run(cfg)
        summary = summarize(str(out))
        stats = summary["per_n"]["8"]
        assert stats["median_ratio_upper"] == stats["max_ratio_upper"]

    def test_aggregation_replay(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(out=str(out)))
        records = run(cfg)
        summary = summarize(str(out))
        for n in (8, 10):
            ratios = sorted(r.ratio_upper for r in records if r.n == n)
            assert summary["per_n"][str(n)]["max_ratio_upper"] == pytest.approx(ratios[-1])
        assert summary["violations"] == 0

    def test_nonconverged_counts(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(out=str(out)))
        records = run(cfg)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        flags = [(True, True), (False, True), (False, False), (True, False)]
        for row, (low, up) in zip(rows[1:], flags):
            aux = json.loads(row[12])
            aux.update(lower_converged=low, upper_converged=up)
            row[12] = json.dumps(aux)
        with open(out, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        summary = summarize(str(out))
        assert (summary["nonconverged_lower"], summary["nonconverged_upper"]) == (2, 2)
        assert summary["rows"] == len(records) and summary["violations"] == 0

    def test_nonconverged_absent_flags(self, tmp_path):
        # diagnostics rows carry no convergence flags and count as converged
        out = tmp_path / "r.csv"
        cfg = config_from_dict(_base_config(
            command="diagnostics", k=3, n_list=[20], m=1,
            p_rule={"kind": "c_logn_over_nm", "c": 5.0, "m": 1},
            trials=1, out=str(out), params={"families": 50}))
        run(cfg)
        summary = json.loads((tmp_path / "r.csv.summary.json").read_text())
        assert summary["nonconverged_lower"] == summary["nonconverged_upper"] == 0

    def test_malformed_header(self, tmp_path):
        from tensorconc.harness import CsvFormatError

        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(CsvFormatError):
            summarize(str(path))


class TestCli:
    def _cli(self, *args):
        return subprocess.run([sys.executable, "-m", "tensorconc.cli", *args],
                              capture_output=True, text=True)

    def test_run_and_summarize(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "r.csv"
        cfg = _base_config(n_list=[8], trials=1, out=str(out))
        cfg_path.write_text(json.dumps(cfg))
        res = self._cli("concentration", "--config", str(cfg_path), "--jobs", "2")
        assert res.returncode == 0, res.stderr
        assert out.exists() and (tmp_path / "r.csv.summary.json").exists()
        sum_cfg = tmp_path / "s.json"
        sum_cfg.write_text(json.dumps({"csv": str(out)}))
        res = self._cli("summarize", "--config", str(sum_cfg))
        assert res.returncode == 0
        assert json.loads(res.stdout)["rows"] == 1

    def test_config_error_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_base_config(trials=0)))
        res = self._cli("concentration", "--config", str(cfg_path))
        assert res.returncode == 2

    def test_bad_estimator_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1)))
        res = self._cli("concentration", "--config", str(cfg_path),
                        "--set", "estimator.restarts=0", "--out", str(tmp_path / "o.csv"))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: estimator.restarts must be an int >= 1")

    def test_sparsify_above_dense_gate_exit_2(self, tmp_path):
        # 120^3 > 10^6: refused before the n = 8 trials run
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(command="sparsify", n_list=[8, 120],
                                                    trials=1, out=str(out))))
        res = self._cli("sparsify", "--config", str(cfg_path))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: sparsify") and "dense gate" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "k=3.9", "n_list=[8.7]", "trials=2.5", 'trials="2"', "base_seed=1.5", "p_rule.m=2.5",
        "estimator.restarts=2.5", "estimator.restarts=true", "estimator.num_slices=2.5"])
    def test_inexact_number_exit_2(self, tmp_path, override):
        # none of these is exactly a number of the type its key takes
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(
            n_list=[8], p_rule={"kind": "c_logn_over_nm", "c": 5.0, "m": 2}, trials=1,
            out=str(out))))
        res = self._cli("concentration", "--config", str(cfg_path), "--set", override,
                        "--jobs", "2")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("params,override", [
        ({"familes": 10}, []), ({}, ["params.families=abc"]), ({}, ["params.families=0"])])
    def test_bad_params_exit_2(self, tmp_path, params, override):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(
            command="diagnostics", n_list=[8], m=1, trials=1, out=str(out), params=params)))
        sets = [arg for item in override for arg in ("--set", item)]
        res = self._cli("diagnostics", "--config", str(cfg_path), *sets)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: ") and "params" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("over,match", [
        ({"n_list": [0, 5]}, "n_list entries must lie in"),
        ({"k": 4, "n_list": [100000]}, "not below 2^63"),
        ({"command": "expander", "n_list": [2]}, "n = 2 < k = 3"),
        ({"base_seed": 2**64}, "base_seed must be in [0, 2^64)"),
    ])
    def test_bad_sizes_exit_2(self, tmp_path, over, match):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg = _base_config(trials=1, out=str(out), **over)
        cfg_path.write_text(json.dumps(cfg))
        res = self._cli(cfg["command"], "--config", str(cfg_path), "--jobs", "2")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: ") and match in res.stderr
        assert not out.exists()

    def test_command_mismatch_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_base_config(command="expander")))
        res = self._cli("concentration", "--config", str(cfg_path))
        assert res.returncode == 2

    def test_csv_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        sum_cfg = tmp_path / "s.json"
        sum_cfg.write_text(json.dumps({"csv": str(bad)}))
        res = self._cli("summarize", "--config", str(sum_cfg))
        assert res.returncode == 3

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # n=120 gives a 120 x 14400 unfolding: its 14400-long vectors are past
        # the length at which OpenBLAS splits a dot product across threads.
        # n=300 gives a 300 x 300 Gram matrix, a size at which LAPACK's
        # symmetric eigensolver returns different bits at 1 and 2 threads.
        # k=4, n=24 gives a 576 x 576 Gram matrix, whose LAPACK Cholesky
        # factor has different bits at 1 and 2 threads; it is only a yes/no
        # gate of the certified upper bound.
        for k, n, trials in ((3, 120, 2), (3, 300, 1), (4, 24, 1)):
            cfg_path = tmp_path / f"c{k}-{n}.json"
            cfg_path.write_text(json.dumps(_base_config(
                k=k, n_list=[n], p_rule={"kind": "c_logn_over_nm", "c": 5.0, "m": 2},
                trials=trials, base_seed=1, estimator={"restarts": 2})))
            outputs = {}
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                for jobs in ("1", "2"):
                    out = tmp_path / f"k{k}-n{n}-t{threads}-j{jobs}.csv"
                    res = subprocess.run(
                        [sys.executable, "-m", "tensorconc.cli", "concentration", "--config",
                         str(cfg_path), "--jobs", jobs, "--out", str(out)],
                        capture_output=True, text=True, env=env)
                    assert res.returncode == 0, res.stderr
                    outputs[threads, jobs] = _masked(out)
            reference = outputs["1", "1"]
            assert len(reference) == trials + 2  # header, rows, trailing newline
            for key, lines in outputs.items():
                assert lines == reference, (k, n, key)

    def test_set_override(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1)))
        res = self._cli("concentration", "--config", str(cfg_path),
                        "--set", "trials=2", "--out", str(out))
        assert res.returncode == 0
        with open(out) as f:
            assert len(list(csv.reader(f))) == 3
