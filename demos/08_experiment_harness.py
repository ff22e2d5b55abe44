"""Monte-Carlo experiment harness with deterministic CSV output.

A JSON config names a command (concentration, regularize, expander,
sparsify, diagnostics), a sparsity rule p(n), the sweep grid and the output
path; every (n, trial) cell runs under seed (base_seed, trial) and the CSV
bytes are a pure function of the config, whatever the worker count.

The CLI equivalent of this script:

    tensorconc run --config conc.json --jobs 4
    tensorconc summarize conc.csv
"""

import dataclasses
import json
import pathlib
import tempfile

from tensorconc.harness import config_from_dict, run, summarize


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="tensorconc-demo-"))
    out = workdir / "concentration.csv"

    config = config_from_dict({
        "command": "concentration",
        "k": 3,
        "n_list": [16, 24, 32],
        "m": 2,
        "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 2},
        "trials": 5,
        "base_seed": 88,
        "estimator": {"restarts": 4},
        "out": str(out),
    })

    records = run(config, jobs=4)
    print(f"wrote {len(records)} rows to {out}")
    print("first row:", records[0])

    summary = summarize(str(out))
    print(json.dumps(summary["per_n"], indent=2, sort_keys=True))
    print("sandwich violations:", summary["violations"])
    print("non-converged rows (lower, upper):",
          summary["nonconverged_lower"], summary["nonconverged_upper"])

    # Determinism: running again produces identical bytes up to the wall_ms column.
    again = workdir / "again.csv"
    run(dataclasses.replace(config, out=again), jobs=1)
    mask = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
    print("byte-deterministic (wall_ms masked):", mask(out) == mask(again))


# The guard is required: run(jobs=4) spawns worker processes, and each one
# imports this script as its main module.
if __name__ == "__main__":
    main()
