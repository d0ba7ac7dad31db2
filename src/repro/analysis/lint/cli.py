"""The ``python -m repro lint`` command (parser wiring + handler).

Follows the ``cache verify`` convention: exit 0 on a clean tree, exit 1
when any non-baselined finding remains — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    BaselineError,
    load_baseline,
    save_baseline,
)
from .engine import run_lint
from .reporting import render_json, render_text
from .rules import RULES
from .sources import LintConfig


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the repro package "
             "sources plus ./benchmarks when present)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        dest="fmt", help="report format (default text)")
    parser.add_argument("--rules", default=None, metavar="FAM[,FAM...]",
                        help="rule families to run (default: "
                             f"{','.join(sorted(RULES))})")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file of grandfathered findings "
                             f"(default: ./{DEFAULT_BASELINE_NAME} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file (report everything)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the current findings to the baseline "
                             "file and exit 0 (each entry still needs a "
                             "justification filled in before commit)")
    parser.add_argument("--det-all", action="store_true",
                        help="treat every linted file as determinism-scoped "
                             "(fixture trees / ad-hoc paths)")


def default_paths() -> list[str]:
    """The repo's own sources: the installed ``repro`` package directory
    plus ``./benchmarks`` when run from the repo root."""
    import repro

    paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    if os.path.isdir("benchmarks"):
        paths.append("benchmarks")
    return paths


def run(args: argparse.Namespace) -> int:
    if args.rules:
        families = tuple(
            token.strip().upper() for token in args.rules.split(",") if token.strip()
        )
    else:
        families = LintConfig.rules
    config = LintConfig(rules=families, det_all=args.det_all)

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        if Path(DEFAULT_BASELINE_NAME).is_file():
            baseline_path = DEFAULT_BASELINE_NAME

    baseline: Baseline | None = None
    if baseline_path is not None and not args.no_baseline and not args.write_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    paths = list(args.paths) or default_paths()
    try:
        result = run_lint(paths, config=config, baseline=baseline)
    except ValueError as exc:  # unknown --rules family or stale LintConfig
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE_NAME
        save_baseline(target, result.blocking)
        print(f"wrote {len(result.blocking)} finding(s) to {target}")
        return 0

    print(render_json(result) if args.fmt == "json" else render_text(result))
    return 0 if result.ok else 1
