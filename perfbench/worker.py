"""Child process of the benchmark: one measured step per process.

    python3 perfbench/worker.py setup CONFIG        import tensorconc.cli, load CONFIG
    python3 perfbench/worker.py sweep CONFIG JOBS   harness.run(CONFIG) at JOBS workers
    python3 perfbench/worker.py trace CONFIG OUTDIR traced replay of CONFIG's trials

Each prints one JSON object on its last stdout line.  tensorconc is imported
from the ``src`` directory of the checkout that holds this file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(config_path: str) -> dict:
    t0 = time.perf_counter()
    import tensorconc.cli  # noqa: F401
    t1 = time.perf_counter()
    from tensorconc.harness import load_config

    load_config(config_path)
    t2 = time.perf_counter()
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    return {"import_s": t1 - t0, "load_config_s": t2 - t1, "env": env}


def sweep(config_path: str, jobs: int) -> dict:
    from tensorconc.harness import load_config, run

    cfg = load_config(config_path)
    error = None
    t0 = time.perf_counter()
    try:
        run(cfg, jobs=jobs)
    except Exception as exc:  # a trial that raises fails the sweep; the gate counts it
        error = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - t0
    return {"run_s": run_s, "peak_rss_mb": _peak_rss_mb(), "error": error}


def trace(config_path: str, outdir: str) -> dict:
    from tracing import traced_sweep

    return traced_sweep(config_path, Path(outdir))


def main(argv: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    step, config_path = argv[0], argv[1]
    if step == "setup":
        result = setup(config_path)
    elif step == "sweep":
        result = sweep(config_path, int(argv[2]))
    elif step == "trace":
        result = trace(config_path, argv[2])
    else:
        raise SystemExit(f"unknown step {step!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
