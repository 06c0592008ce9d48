"""Command-line front end.

One subcommand per invocation::

    specklesim <subcommand> [--config PATH] [--seed U64] [--out DIR=out]
               [--force] [--threads N] [--quiet]
    specklesim selftest [--quiet]

Every subcommand but ``selftest`` is a row of the one table of subcommands,
:data:`specklesim.config.SCENARIOS`: its runner in ``experiments`` builds
the file contents that ``emit_scenario`` writes to the output directory,
and its summary is printed unless ``--quiet``.  ``--out`` alone names
that directory (default ``out``): no config key does, so a manifest
re-runs to the same bytes under any ``--out``.  ``selftest``, which
takes only ``--quiet``, writes nothing.

Exit codes: 0 success, 1 usage, configuration or I/O error, 2 domain error
(for example a non-embeddable splitter setting).  Error text goes to
stderr; data goes to files in the output directory.  Identical
``(argv, config, seed)`` always produce identical outputs.  ``--threads``
is accepted and checked, but all work runs on one thread today.

The argument parser is built on the first :func:`main` call and reused by
every later call in the process; each call parses into a fresh namespace,
so nothing carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .config import SCENARIOS, ConfigError, parse_config
from .experiments import emit_scenario
from .rng import check_seed

SUBCOMMANDS = (*SCENARIOS, "selftest")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


_parser: _Parser | None = None  # built by the first _run call, not at import


def _build_parser() -> _Parser:
    parser = _Parser(prog="specklesim", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)  # no prefix matching: --t is not --threads
        p.add_argument("--quiet", action="store_true", help="suppress the summary (selftest: the PASS lines)")
        if name == "selftest":
            continue
        p.add_argument("--config", type=str, default=None, help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
        p.add_argument("--out", type=str, default="out", help="output directory (default out)")
        p.add_argument("--force", action="store_true", help="overwrite an existing manifest")
        p.add_argument(
            "--threads", type=int, default=1, help="worker count (>= 1); accepted, but all work runs on one thread"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        return _run(argv if argv is not None else sys.argv[1:])
    except (_UsageError, ConfigError, OSError) as exc:
        print(f"specklesim: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"specklesim: error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


def _run(argv: list[str]) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    if args.subcommand is None:
        raise _UsageError(f"missing subcommand; choose one of: {', '.join(SUBCOMMANDS)}")
    if args.subcommand == "selftest":
        from .selftest import run_selftest

        return 0 if run_selftest(quiet=args.quiet) else 1
    if args.threads < 1:
        raise _UsageError(f"--threads must be >= 1, got {args.threads}")
    try:
        seed = check_seed(args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    try:
        text = Path(args.config).read_text(encoding="utf-8-sig") if args.config is not None else ""
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config}: not UTF-8 text: {exc}") from None
    config = parse_config(text, args.subcommand)
    runner, _, summary = SCENARIOS[args.subcommand]
    result, files = getattr(experiments, runner)(config, seed)
    emit_scenario(args.out, args.subcommand, seed, files, config, args.force)
    if not args.quiet:
        print(summary(result, config))
    return 0


if __name__ == "__main__":
    console_main()
