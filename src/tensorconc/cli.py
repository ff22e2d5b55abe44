"""Command-line entry point.

    tensorconc run --config <file> [--set key=value]... [--jobs N]
    tensorconc summarize <csv> [--out path]

run executes the Monte-Carlo sweep a JSON config states, its command
(concentration, regularize, expander, sparsify, diagnostics) and its output
path (out) included; --set overrides a (dotted) key, a str field (command,
out, p_rule.kind) with its text as written and any other with JSON.
summarize writes a results CSV's summary to --out (not empty) or stdout.
Exit codes: 0 success, 2 config or usage error (--jobs below 1 too), 3 I/O
or CSV parse error; an output directory that takes no file, or an output or
summary path that is a directory, stops a sweep before its first trial.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, CsvFormatError, load_config, run, write_summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tensorconc", description=__doc__)
    sub = parser.add_subparsers(dest="action", required=True)
    sweep = sub.add_parser("run")
    sweep.add_argument("--config", required=True, help="JSON config file")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a (dotted) config key: the text for a str "
                            "field (command, out, p_rule.kind), JSON for any other")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run trials in the calling process plus N-1 spawned workers, "
                            "never more processes than trials or usable CPUs; each worker "
                            "has one BLAS thread, the caller keeps its own; the output "
                            "bytes do not depend on N or on OPENBLAS_NUM_THREADS")
    summary = sub.add_parser("summarize")
    summary.add_argument("csv", help="results CSV")
    summary.add_argument("--out", default=None, help="summary path, nonempty (stdout if none)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.action == "summarize":
            write_summary(args.csv, args.out)
        else:
            run(load_config(args.config, args.set), jobs=args.jobs)
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


if __name__ == "__main__":
    sys.exit(main())
