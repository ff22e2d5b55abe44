import csv
import dataclasses
import json
from fractions import Fraction
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from conftest import COPIERS, assert_equal_copy
from tensorconc import ConfigError, harness, load_config, run, spectral, summarize
from tensorconc.harness import CSV_HEADER, EstimatorSettings, config_from_dict
from tensorconc.unfolding import Partition


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

    @pytest.mark.parametrize("section,raw,message", [
        pytest.param(None, [1], "config must be an object, got [1]", id="config-not-object"),
        pytest.param(None, _base_config(bogus=1), "unknown config keys: ['bogus']",
                     id="config-unknown"),
        pytest.param(None, {k: v for k, v in _base_config().items() if k != "trials"},
                     "missing config key: trials", id="config-missing"),
        pytest.param("estimator", 4, "estimator must be an object, got 4",
                     id="estimator-not-object"),
        pytest.param("estimator", {"restarts": 2, "seed": 1}, "unknown estimator keys: ['seed']",
                     id="estimator-unknown"),
        pytest.param("params", [10], "params must be an object, got [10]", id="params-not-object"),
        pytest.param("params", {"families": 10, "c1": 3.0}, "unknown params keys: ['c1']",
                     id="params-unknown"),
        pytest.param("p_rule", "fixed", "p_rule must be an object, got 'fixed'",
                     id="p_rule-not-object"),
        pytest.param("p_rule", {"kind": "fixed", "q": 0.2}, "unknown p_rule keys: ['q']",
                     id="p_rule-unknown"),
        pytest.param("p_rule", {"p": 0.2}, "missing p_rule key: kind", id="p_rule-missing-kind"),
        pytest.param("p_rule", {"kind": "nope"}, "unknown p_rule kind 'nope'",
                     id="p_rule-unknown-kind"),
        pytest.param("p_rule", {"kind": "fixed", "p": 0.2, "m": 2},
                     "unknown fixed p_rule keys: ['m']", id="p_rule-kind-extra"),
        pytest.param("p_rule", {"kind": "c_over_nm", "c": 1.0}, "missing c_over_nm p_rule key: m",
                     id="p_rule-kind-missing"),
        pytest.param("p_rule", {"kind": "c_logn_over_nm", "c": 1.0, "m": 2, "p": 0.1},
                     "unknown c_logn_over_nm p_rule keys: ['p']", id="p_rule-kind-other"),
    ])
    def test_key_rule(self, section, raw, message):
        # each config object is an object whose keys are all known and
        # include the required ones; p_rule's kind then fixes its exact keys
        data = raw if section is None else _base_config(command="diagnostics", m=1,
                                                        **{section: raw})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(data)

    def test_p_rule_built_in_code_is_checked(self):
        with pytest.raises(ConfigError, match=r"p_rule\.m must be an int >= 0"):
            harness.ExperimentConfig(command="concentration", k=3, n_list=(8,), m=2, trials=1,
                                     base_seed=0, p_rule=harness.PRule("c_over_nm", 1e308, -400))
        with pytest.raises(ConfigError, match=r"p_rule\.m must be an int >= 0, got 2\.5"):
            harness.PRule("c_over_nm", 1.0, 2.5)
        for kind in ("nope", [1]):
            with pytest.raises(ConfigError, match="unknown p_rule kind"):
                harness.PRule(kind)
        rule = harness.PRule("c_over_nm", 3, np.int64(2))
        assert (type(rule.c), type(rule.m)) == (float, int) and rule.value(10) == 0.03

    def test_invalid_config_cannot_be_built(self):
        cfg = config_from_dict(_base_config())
        for over in ({"trials": 0}, {"base_seed": -1}, {"m": 3}, {"trials": 2.5}, {"k": 3.0},
                     {"n_list": (8.5,)}, {"base_seed": 1.5}, {"m": True}, {"n_list": 5},
                     {"command": [1]}):
            with pytest.raises(ConfigError):
                dataclasses.replace(cfg, **over)

    @pytest.mark.parametrize("over,match", [
        ({"restarts": 0}, "estimator.restarts must be an int >= 1, got 0"),
        ({"restarts": 2.5}, "estimator.restarts must be an int >= 1, got 2.5"),
        ({"restarts": True}, "estimator.restarts must be an int >= 1, got True"),
    ])
    def test_estimator_settings_read_on_construction(self, over, match):
        with pytest.raises(ConfigError, match=match):
            EstimatorSettings(**over)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(_base_config(bogus=1))

    def test_schema_is_the_dataclass(self):
        # required keys, defaults and known keys all come from ExperimentConfig
        base = _base_config()
        for key in ("base_seed", "estimator", "out"):
            del base[key]
        cfg = config_from_dict(base)
        assert (cfg.base_seed, cfg.estimator, cfg.out) == (0, EstimatorSettings(), "results.csv")
        assert cfg.params == {}
        for key in ("command", "k", "n_list", "p_rule", "m", "trials"):
            with pytest.raises(ConfigError, match=f"^missing config key: {key}$"):
                config_from_dict({k: v for k, v in base.items() if k != key})
        with pytest.raises(ConfigError, match=r"^unknown config keys: \['bogus', 'zz'\]$"):
            config_from_dict(_base_config(bogus=1, zz=2, trials=0))

    def test_out_is_a_path(self, tmp_path):
        cfg = config_from_dict(_base_config())
        moved = dataclasses.replace(cfg, out=tmp_path / "r.csv")
        assert moved.out == str(tmp_path / "r.csv") and type(moved.out) is str
        for bad in (5, None, b"r.csv", ["r.csv"], ""):
            with pytest.raises(ConfigError, match="out must be a path"):
                dataclasses.replace(cfg, out=bad)
            with pytest.raises(ConfigError, match="out must be a path"):
                config_from_dict(_base_config(out=bad))

    def test_log_rule_values(self):
        cfg = config_from_dict(_base_config(p_rule={"kind": "c_logn_over_nm", "c": 5, "m": 2}))
        assert cfg.p_rule.value(10) == pytest.approx(5 * np.log(10) / 100)

    @pytest.mark.parametrize("bad", [
        {"matrix_tol": 1e-10}, {"tensor_tol": 1e-8}, {"max_iterations": 500},
        {"restarts": 4, "max_iterations": 500}])
    def test_bad_estimator_settings(self, bad):
        with pytest.raises(ConfigError, match="unknown estimator keys"):
            config_from_dict(_base_config(estimator=bad))

    @pytest.mark.parametrize("raw, match", [
        ([1], "estimator must be an object"), (4, "estimator must be an object"),
        ({"restarts": 2, "seed": 1}, r"unknown estimator keys: \['seed'\]"),
        ({"restarts": 0}, "estimator.restarts must be an int >= 1, got 0"),
        ({"num_slices": 2}, r"unknown estimator keys: \['num_slices'\]"),
    ])
    def test_estimator_section_messages(self, raw, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(_base_config(estimator=raw))

    def test_estimator_counts_read_once(self, monkeypatch):
        # the section is checked as an object with known keys; the settings
        # read each count and fill the defaults themselves
        names, real = [], harness._number

        def spy(raw, kind, name, least=None):
            names.append(name)
            return real(raw, kind, name, least)

        monkeypatch.setattr(harness, "_number", spy)
        cfg = config_from_dict(_base_config(estimator={}))
        assert names.count("estimator.restarts") == 1
        assert cfg.estimator == EstimatorSettings()

    @pytest.mark.parametrize("key", ["restarts"])
    def test_estimator_counts_at_least_1(self, key):
        with pytest.raises(ConfigError, match=f"estimator.{key} must be an int >= 1, got 0"):
            config_from_dict(_base_config(estimator={key: 0}))

    def test_replay_constants_are_not_settings(self):
        # the benchmark's traced replay reads cfg.partition and
        # cfg.estimator.num_slices; neither is a config key or a field
        cfg = config_from_dict(_base_config())
        assert "partition" not in [f.name for f in dataclasses.fields(cfg)]
        assert "num_slices" not in [f.name for f in dataclasses.fields(cfg.estimator)]
        assert cfg.partition is None
        assert cfg.estimator.num_slices == spectral.NUM_SLICES
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, partition=Partition([[1, 3], [2]]))
        with pytest.raises(TypeError):
            dataclasses.replace(cfg.estimator, num_slices=2)

    def test_params_typed_with_defaults(self):
        cfg = config_from_dict(_base_config(command="diagnostics", m=1, params={"families": 100}))
        assert cfg.params == {"families": 100}
        assert config_from_dict(_base_config(command="diagnostics", m=1)).params == {
            "families": 1000}
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
        ("diagnostics", {"c1": 3.0}, "unknown params"),  # the trial's constants
        ("diagnostics", {"c2": 20.0, "c3": 20.0}, "unknown params"),
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

    @pytest.mark.parametrize("trials", [0, 2**64 + 1])
    def test_trials_within_seed_streams(self, trials):
        # trial t runs under SeedSpec(base_seed, t), whose stream id is below 2^64
        with pytest.raises(ConfigError, match=rf"^trials must be in \[1, 2\^64\], got {trials}$"):
            config_from_dict(_base_config(trials=trials))
        assert config_from_dict(_base_config(trials=2**64)).trials == 2**64

    def test_set_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_base_config()))
        cfg = load_config(str(path), overrides=["trials=5", "estimator.restarts=2"])
        assert cfg.trials == 5
        assert cfg.estimator.restarts == 2

    def test_set_value_typed_by_schema(self, tmp_path):
        # a str field takes the text as written, any other key JSON
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_base_config()))
        data = harness.read_config(str(path), [
            "out=2024", "command=null", "p_rule.kind=true", "trials=3", "estimator.restarts=[2]",
            "params.families=7", 'p_rule.p="0.5"'])
        assert (data["out"], data["command"], data["p_rule"]) == (
            "2024", "null", {"kind": "true", "p": "0.5"})
        assert (data["trials"], data["estimator"], data["params"]) == (
            3, {"restarts": [2]}, {"families": 7})
        assert harness.read_config(str(path), ['out="a b"'])["out"] == '"a b"'
        for item in ("trials=three", "estimator.restarts=2x", "bogus=x", "p_rule.c="):
            key, raw = item.split("=", 1)
            with pytest.raises(ConfigError, match=f"^--set {re.escape(key)} takes a JSON value"):
                harness.read_config(str(path), [item])
        with pytest.raises(ConfigError, match="crosses a non-object"):
            harness.read_config(str(path), ["out.x=1"])
        path.write_text("[1]")
        with pytest.raises(ConfigError, match="^config must be an object, got \\[1\\]$"):
            load_config(str(path))


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

    def test_records_frozen(self, tmp_path):
        cfg = config_from_dict(_base_config(n_list=[8], trials=1, out=str(tmp_path / "r.csv")))
        record = run(cfg)[0]
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
        for copier in COPIERS.values():
            assert_equal_copy(record, copier(record))

    @pytest.mark.parametrize("p", [1e-160, 1e-300, 5e-324])
    @pytest.mark.parametrize("n", [4, 6])
    def test_tiny_p_rows_bracket(self, tmp_path, n, p):
        # no entry is drawn, so each row brackets -pJ, whose norm is p n^1.5:
        # compared exactly on the squares, lower within 1e-12 of it and upper above
        cfg = config_from_dict(_base_config(
            command="concentration", k=3, n_list=[n], m=2,
            p_rule={"kind": "fixed", "p": p}, trials=2, out=str(tmp_path / "r.csv")))
        norm_sq = Fraction(p) ** 2 * n**3
        for rec in run(cfg):
            assert rec.aux["nnz"] == 0
            assert 0.0 < rec.lower <= rec.upper
            assert Fraction(rec.lower) ** 2 <= norm_sq * (1 + Fraction(1, 10**12)) ** 2
            assert Fraction(rec.upper) ** 2 >= norm_sq
            if p > 1e-300:
                assert rec.lower == pytest.approx(p * n**1.5, rel=1e-12, abs=0)
                assert rec.upper == pytest.approx(p * n**1.5, rel=1e-12, abs=0)

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
        run(dataclasses.replace(cfg, out=a))
        run(dataclasses.replace(cfg, out=b))
        assert _masked(a) == _masked(b)

    def test_determinism_jobs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = config_from_dict(_base_config())
        run(dataclasses.replace(cfg, out=a), jobs=1)
        run(dataclasses.replace(cfg, out=b), jobs=8)
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

    def test_workers_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        def no_pool(*args):
            raise AssertionError("worker processes started on a one-CPU host")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "_run_in_processes", no_pool)
        records = run(config_from_dict(_base_config(out=str(tmp_path / "r.csv"))), jobs=4)
        assert len(records) == 4

    def test_unwritable_output_runs_no_trial(self, tmp_path, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran before the output was checked")

        monkeypatch.setattr(harness, "_run_trial", no_trial)
        cfg = config_from_dict(_base_config(out=str(tmp_path / "missing" / "r.csv")))
        for jobs in (1, 2):
            with pytest.raises(OSError):
                run(cfg, jobs=jobs)
        assert not (tmp_path / "missing").exists()
        # an output path, or the summary beside it, that names a directory
        (tmp_path / "adir").mkdir()
        (tmp_path / "b.csv.summary.json").mkdir()
        for out in (tmp_path / "adir", tmp_path / "b.csv"):
            for jobs in (1, 2):
                with pytest.raises(IsADirectoryError):
                    run(config_from_dict(_base_config(out=out)), jobs=jobs)
        assert not (tmp_path / "b.csv").exists()

    def test_empty_out_runs_no_trial(self, monkeypatch):
        # an empty path is refused when the config is built, not after the sweep
        calls = []
        monkeypatch.setattr(harness, "_run_trial", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="^out must be a path, got ''$"):
            run(config_from_dict(_base_config(trials=3, out="")))
        assert calls == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_1_rejected(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(harness, "_run_trial", None)
        with pytest.raises(ConfigError, match=f"^jobs must be >= 1, got {jobs}$"):
            run(config_from_dict(_base_config(out=str(tmp_path / "r.csv"))), jobs=jobs)
        assert not (tmp_path / "r.csv").exists()

    def test_path_out_writes_csv_and_summary(self, tmp_path):
        out = tmp_path / "r.csv"
        records = run(config_from_dict(_base_config(n_list=[8], trials=1, out=out)))
        with open(out) as f:
            assert len(list(csv.reader(f))) == 1 + len(records)
        assert json.loads((tmp_path / "r.csv.summary.json").read_text()) == summarize(str(out))

    def test_partition_override_validated(self):
        # an upper candidate is no config key
        for blocks in ([[1, 3], [2]], [[1], [2]]):
            with pytest.raises(ConfigError, match=r"^unknown config keys: \['partition'\]$"):
                config_from_dict(_base_config(partition=blocks))

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

    # A centered tensor goes to a spawned worker and its estimate comes back:
    # the same bits as the caller's own call.
    SANDWICH = textwrap.dedent("""
        import concurrent.futures, math, multiprocessing
        from tensorconc import (Homogeneous, PowerIterConfig, SeedSpec, TensorShape,
                                bernoulli_sample, center, spectral_sandwich)

        p = 5 * math.log(30) / 30**2
        w = center(bernoulli_sample(TensorShape(3, 30), Homogeneous(p), SeedSpec(1, 0)),
                   Homogeneous(p))
        config = PowerIterConfig(restarts=2, seed=SeedSpec(1, 0))
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
            future = pool.submit(spectral_sandwich, w, 2, config)
            error = future.exception()

        def bits(est):
            return ([x.hex() for x in (est.lower, est.upper)],
                    {key: value.hex() for key, value in est.bounds.items()},
                    [v.tobytes() for v in est.lower_witness])
        if error is not None:
            print(type(error).__name__)
        else:
            there = future.result()
            print(type(there).__name__, bits(there) == bits(spectral_sandwich(w, 2, config)))
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

    def test_estimate_from_spawned_worker(self):
        assert self._python(self.SANDWICH) == "SpectralEstimate True"

    def test_worker_death_raises(self, tmp_path):
        cfg = _base_config(out=str(tmp_path / "r.csv"))
        assert self._error(cfg, 2, die=True).startswith("BrokenProcessPool")

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_caller_and_workers_share_one_counter(self, tmp_path, jobs):
        # the caller sleeps 1 s before each of its trials, so the workers,
        # once booted, take the rest of the 8
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(config_from_dict(_base_config(trials=4, out=str(a))), jobs=1)
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

    def test_no_worker_left_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = config_from_dict(_base_config(command="expander", n_list=[8], trials=2,
                                            out=str(tmp_path / "r.csv")))
        run(cfg, jobs=2)
        assert multiprocessing.active_children() == []
        # the caller's trials only sleep and the worker's raise: the error
        # comes back from the worker, which is gone too
        cfg = dataclasses.replace(cfg, trials=200)
        cfg.params["mixing_families"] = 0  # after the load-time check
        monkeypatch.setattr(harness, "_run_trial", lambda *args: time.sleep(0.05))
        with pytest.raises(ValueError, match="count must be >= 1"):
            run(cfg, jobs=2)
        assert multiprocessing.active_children() == []

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

    @pytest.mark.parametrize("edit,expect", [
        ({}, 0),
        ({"lower": "2.000000005"}, 0),  # above upper by less than SANDWICH_SLACK
        ({"lower": "2.00000002"}, 1),
        ({"wall_ms": None}, f"row has {len(CSV_HEADER) - 1} fields, expected {len(CSV_HEADER)}"),
        ({"n": "8.0"}, "unparsable row"),
        ({"upper": "two"}, "unparsable row"),
        ({"aux": "{"}, "unparsable row"),
        ({"aux": "[1]"}, "aux is not a JSON object"),
        # below a norm of 1 the slack is relative, and a NaN fails the rule
        ({"lower": "1.0000001e-159", "upper": "1e-159"}, 1),
        ({"upper": "nan"}, 1),
    ])
    def test_body_rows(self, tmp_path, edit, expect):
        from tensorconc.harness import CsvFormatError

        good = {"command": "concentration", "k": "3", "n": "8", "p": "0.2", "m": "2",
                "trial": "0", "seed": "5:0", "lower": "1.5", "upper": "2", "sqrt_nmp": "1",
                "ratio_lower": "1.5", "ratio_upper": "2", "aux": "{}", "wall_ms": "1"}
        row = {**good, **edit}
        path = tmp_path / "r.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerow([good[name] for name in CSV_HEADER])
            writer.writerow([row[name] for name in CSV_HEADER if row[name] is not None])
        if isinstance(expect, int):
            summary = summarize(str(path))
            assert (summary["rows"], summary["violations"]) == (2, expect)
        else:
            with pytest.raises(CsvFormatError, match=expect):
                summarize(str(path))

    def test_malformed_header(self, tmp_path):
        from tensorconc.harness import CsvFormatError

        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(CsvFormatError):
            summarize(str(path))


class TestCli:
    def _cli(self, *args, cwd=None):
        # the package under test, importable from any working directory
        path = [os.path.dirname(os.path.dirname(harness.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        return subprocess.run([sys.executable, "-m", "tensorconc.cli", *args],
                              capture_output=True, text=True, cwd=cwd, env=env)

    def test_run_and_summarize(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "r.csv"
        cfg = _base_config(n_list=[8], trials=1, out=str(out))
        cfg_path.write_text(json.dumps(cfg))
        res = self._cli("run", "--config", str(cfg_path), "--jobs", "2")
        assert res.returncode == 0, res.stderr
        assert out.exists() and (tmp_path / "r.csv.summary.json").exists()
        res = self._cli("summarize", str(out))
        assert res.returncode == 0
        assert json.loads(res.stdout)["rows"] == 1

    def test_jobs_help_names_the_caller(self):
        # the caller runs trials beside N - 1 spawned workers and keeps its
        # own BLAS threads
        from tensorconc.cli import _build_parser

        sub = next(a for a in _build_parser()._actions if a.dest == "action")
        jobs = next(a for a in sub.choices["run"]._actions if a.dest == "jobs")
        assert "calling process plus N-1 spawned workers" in jobs.help
        assert "caller keeps its own" in jobs.help

    def test_config_error_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_base_config(trials=0)))
        res = self._cli("run", "--config", str(cfg_path))
        assert res.returncode == 2

    def test_bad_estimator_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1)))
        res = self._cli("run", "--config", str(cfg_path),
                        "--set", "estimator.restarts=0", "--set", f"out={tmp_path / 'o.csv'}")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: estimator.restarts must be an int >= 1")

    @pytest.mark.parametrize("override", [
        "estimator.num_slices=4", "estimator.num_slices=2.5", "partition=[[1, 3], [2]]"])
    def test_removed_setting_exit_2(self, tmp_path, override):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1, out=str(out))))
        res = self._cli("run", "--config", str(cfg_path), "--set", override)
        assert res.returncode == 2, res.stderr
        section, _, name = override.split("=")[0].rpartition(".")
        assert res.stderr.startswith(f"config error: unknown {section or 'config'} keys: ['{name}']")
        assert not out.exists()

    def test_sparsify_above_dense_gate_exit_2(self, tmp_path):
        # 120^3 > 10^6: refused before the n = 8 trials run
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(command="sparsify", n_list=[8, 120],
                                                    trials=1, out=str(out))))
        res = self._cli("run", "--config", str(cfg_path))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: sparsify") and "dense gate" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "k=3.9", "n_list=[8.7]", "trials=2.5", 'trials="2"', "base_seed=1.5", "p_rule.m=2.5",
        "p_rule.m=2.0",
        "estimator.restarts=2.5", "estimator.restarts=true"])
    def test_inexact_number_exit_2(self, tmp_path, override):
        # none of these is exactly a number of the type its key takes
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(
            n_list=[8], p_rule={"kind": "c_logn_over_nm", "c": 5.0, "m": 2}, trials=1,
            out=str(out))))
        res = self._cli("run", "--config", str(cfg_path), "--set", override, "--jobs", "2")
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
        res = self._cli("run", "--config", str(cfg_path), *sets)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: ") and "params" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("over,match", [
        ({"n_list": [0, 5]}, "n_list entries must lie in"),
        ({"k": 4, "n_list": [100000]}, "not below 2^63"),
        ({"command": "expander", "n_list": [2]}, "n = 2 < k = 3"),
        ({"base_seed": 2**64}, "base_seed must be in [0, 2^64)"),
        ({"p_rule": {"kind": "c_over_nm", "c": 1.0, "m": 400}}, "no float p at n=8"),
        ({"p_rule": {"kind": "c_over_nm", "c": 1e308, "m": -400}}, "p_rule.m must be an int >= 0"),
        # a value of the wrong JSON type is named by its key
        ({"n_list": 5}, "n_list must be a list of ints, got 5"),
        ({"n_list": None}, "n_list must be a list of ints, got None"),
        ({"n_list": 3.5}, "n_list must be a list of ints, got 3.5"),
        ({"command": [1]}, "command must be one of"),
        ({"p_rule": {"kind": [1]}}, "unknown p_rule kind [1]"),
    ])
    def test_bad_sizes_exit_2(self, tmp_path, over, match):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg = _base_config(trials=1, out=str(out), **over)
        cfg_path.write_text(json.dumps(cfg))
        res = self._cli("run", "--config", str(cfg_path), "--jobs", "2")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: ") and match in res.stderr
        assert not out.exists()

    def test_set_command_overrides_file(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1, out=str(out))))
        res = self._cli("run", "--config", str(cfg_path), "--set", "command=regularize")
        assert res.returncode == 0, res.stderr
        with open(out) as f:
            row = dict(zip(CSV_HEADER, list(csv.reader(f))[1]))
        assert row["command"] == "regularize" and "removed" in json.loads(row["aux"])

    def test_set_out_and_command_as_text(self, tmp_path):
        # out and command are str fields: 2024 is a file name, not a number
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_base_config(command="regularize", n_list=[8], trials=1)))
        res = self._cli("run", "--config", str(cfg_path), "--set", "out=2024",
                        "--set", "command=concentration", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "2024") as f:
            row = dict(zip(CSV_HEADER, list(csv.reader(f))[1]))
        assert row["command"] == "concentration"
        assert json.loads((tmp_path / "2024.summary.json").read_text())["rows"] == 1

    def test_empty_summary_out_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "r.csv"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1, out=str(out))))
        assert self._cli("run", "--config", str(cfg_path)).returncode == 0
        res = self._cli("summarize", str(out), "--out", "")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "config error: out must be a path, got ''\n"

    def test_missing_command_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg = _base_config(n_list=[8], trials=1, out=str(out))
        del cfg["command"]
        cfg_path.write_text(json.dumps(cfg))
        res = self._cli("run", "--config", str(cfg_path))
        assert res.returncode == 2, res.stderr
        assert res.stderr == "config error: missing config key: command\n"
        assert not out.exists()

    def test_empty_out_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1)))
        res = self._cli("run", "--config", str(cfg_path), "--set", "out=")
        assert res.returncode == 2, res.stderr
        assert res.stderr == "config error: out must be a path, got ''\n"

    def test_retired_forms_exit_2(self, tmp_path):
        # the command is a config key, and summarize runs no trial
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1, out=str(out))))
        assert self._cli("concentration", "--config", str(cfg_path)).returncode == 2
        assert not out.exists()
        assert self._cli("run", "--config", str(cfg_path)).returncode == 0
        assert self._cli("summarize", str(out), "--jobs", "2").returncode == 2

    def test_unwritable_out_exit_3(self, tmp_path):
        # the sweep stops before its first trial; summarize after reading its CSV
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1)))
        res = self._cli("run", "--config", str(cfg_path),
                        "--set", f"out={tmp_path / 'missing' / 'r.csv'}")
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("io error: ") and "Traceback" not in res.stderr
        out = tmp_path / "r.csv"
        assert self._cli("run", "--config", str(cfg_path), "--set", f"out={out}").returncode == 0
        res = self._cli("summarize", str(out), "--out", str(tmp_path / "missing" / "s.json"))
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("io error: ") and "Traceback" not in res.stderr

    def test_jobs_0_exit_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(_base_config(n_list=[8], trials=1, out=str(out))))
        res = self._cli("run", "--config", str(cfg_path), "--jobs", "0")
        assert res.returncode == 2, res.stderr
        assert res.stderr == "config error: jobs must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_exit_3(self, tmp_path, name):
        res = self._cli("run", "--config", name, cwd=tmp_path)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("io error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    def test_csv_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        res = self._cli("summarize", str(bad))
        assert res.returncode == 3

    @pytest.mark.parametrize("text,override", [
        (b"\xff{}", []),  # not UTF-8
        (b'{"params": ' + b"[" * 100_000, []),  # nested past the recursion limit
        (b"{}", ["--set", "params=" + "[" * 30_000]),
    ], ids=["bad-byte", "deep-file", "deep-set"])
    def test_malformed_config_exit_2(self, tmp_path, text, override):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_bytes(text)
        res = self._cli("run", "--config", str(cfg_path), *override)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: ") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize("field,line", [
        ("\xff", "cannot read bad.csv: "),  # not ASCII
        ("x" * (csv.field_size_limit() + 1), "cannot read bad.csv: "),
        ("[" * 100_000, "unparsable row 1: bad aux\n"),  # nested past the recursion limit
        ("[" + " " * 99_997 + "1]", "aux is not a JSON object in row 1\n"),  # 100,000 characters
    ], ids=["bad-byte", "long-field", "deep-aux", "list-aux"])
    def test_malformed_csv_exit_3(self, tmp_path, field, line):
        row = dict.fromkeys(CSV_HEADER, "1")
        row["aux"] = field
        bad = tmp_path / "bad.csv"
        bad.write_bytes(("\n".join(",".join(r) for r in (CSV_HEADER, row.values())) + "\n")
                        .encode("latin-1"))
        res = self._cli("summarize", "bad.csv", cwd=tmp_path)
        assert res.returncode == 3, res.stderr
        # one short line: a row is named by its number and field, not its text
        assert res.stderr.startswith("csv error: " + line) and res.stderr.count("\n") == 1
        assert len(res.stderr.encode()) <= 200

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
                        [sys.executable, "-m", "tensorconc.cli", "run", "--config",
                         str(cfg_path), "--jobs", jobs, "--set", f"out={out}"],
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
        res = self._cli("run", "--config", str(cfg_path),
                        "--set", "trials=2", "--set", f"out={out}")
        assert res.returncode == 0
        with open(out) as f:
            assert len(list(csv.reader(f))) == 3
