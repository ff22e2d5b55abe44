"""Command-line entry point.

    tensorconc <command> --config <file> [--set key=value]... [--jobs N] [--out path]

Commands: concentration, regularize, expander, sparsify, diagnostics run a
Monte-Carlo sweep from a JSON config; summarize aggregates an existing CSV
(its config is {"csv": "<path>"}).  Exit codes: 0 success, 2 config error,
3 I/O or CSV parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import COMMANDS, ConfigError, CsvFormatError, load_config, read_config, run, summarize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tensorconc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS + ("summarize",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a (dotted) config key")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run trials in N spawned worker processes (at most one per "
                            "usable CPU), each with one BLAS thread; the output bytes do "
                            "not depend on N or on OPENBLAS_NUM_THREADS")
        p.add_argument("--out", default=None, help="output path override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            return _summarize_cmd(args)
        cfg = load_config(args.config, command=args.command, overrides=args.set)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        run(cfg, jobs=args.jobs, out=args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CsvFormatError as exc:
        print(f"csv error: {exc}", file=sys.stderr)
        return 3


def _summarize_cmd(args) -> int:
    data = read_config(args.config, args.set)
    data.pop("command", None)
    csv_path = data.pop("csv", None)
    if csv_path is None or data:
        raise ConfigError("summarize config must be exactly {\"csv\": \"<path>\"}")
    summary = summarize(str(csv_path))
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
