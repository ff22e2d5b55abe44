"""Record the integer outcomes of diag-k3 trials that the gate compares against.

    python3 perfbench/record_reference.py [--seeds 12] [--trials 24]

Runs the diag-k3 sweep for base seeds 0 .. seeds-1 and writes
``diag-k3.reference.json``: {"<base_seed>:<trial>": [max_degree,
disc_violations]}.  Run it only on a commit whose diagnostics are trusted;
the benchmark then fails any trial whose outcomes differ from the record.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tensorconc.harness import config_from_dict, run  # noqa: E402

from spec import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=12)
    parser.add_argument("--trials", type=int, default=24)
    args = parser.parse_args()
    w = WORKLOADS["diag-k3"]
    outdir = HERE.parent / ".bench_out" / "reference"
    outdir.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for base_seed in range(args.seeds):
        cfg = config_from_dict(dict(w.config, trials=args.trials, base_seed=base_seed,
                                    out=str(outdir / f"diag-{base_seed}.csv")))
        for rec in run(cfg):
            recorded[rec.seed] = [rec.aux["max_degree"], rec.aux["disc_violations"]]
        print(f"base seed {base_seed}: {args.trials} trials recorded", flush=True)
    path = HERE / "diag-k3.reference.json"
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(recorded.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(recorded)} outcomes to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
