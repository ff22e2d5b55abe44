"""Command-line entry point.

    tensorconc <command> --config <file> [--set key=value]... [--jobs N] [--out path]

Commands: concentration, regularize, expander, sparsify, diagnostics run a
Monte-Carlo sweep from a JSON config; summarize aggregates an existing CSV
(its config is {"csv": "<path>"}).  Exit codes: 0 success, 2 config error
(``--jobs`` below 1 too), 3 I/O or CSV parse error; an output directory that
takes no file, or an output or summary path that is a directory, stops a
sweep before its first trial.
"""

from __future__ import annotations

import argparse
import sys

from .harness import COMMANDS, ConfigError, CsvFormatError, load_config, read_config, run, write_summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tensorconc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS + ("summarize",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a (dotted) config key")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run trials in the calling process plus N-1 spawned workers, "
                            "never more processes than trials or usable CPUs; each worker "
                            "has one BLAS thread, the caller keeps its own; the output "
                            "bytes do not depend on N or on OPENBLAS_NUM_THREADS")
        p.add_argument("--out", default=None, help="output path override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            return _summarize_cmd(args)
        cfg = load_config(args.config, command=args.command, overrides=args.set)
        run(cfg, jobs=args.jobs, out=args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CsvFormatError as exc:
        print(f"csv error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def _summarize_cmd(args) -> int:
    data = read_config(args.config, args.set)
    data.pop("command", None)
    csv_path = data.pop("csv", None)
    if csv_path is None or data:
        raise ConfigError("summarize config must be exactly {\"csv\": \"<path>\"}")
    write_summary(str(csv_path), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
