"""The lint engine: collect, parse, scope, run rules, filter, report.

:func:`run_lint` is the single entry point (the CLI and the test suite
both call it).  Pipeline:

1. collect ``.py`` files from the given paths (skipping caches and
   hidden directories), parse each once;
2. check that every DET configuration entry still names a linted file
   (:func:`stale_config_entries`), then build the intra-package import
   graph and compute the DET closure;
3. run every requested rule over the shared :class:`LintContext`;
4. assign baseline fingerprints, drop ``# repro: noqa[RULE]``-suppressed
   findings, then split the rest against the baseline.

A file that fails to parse is itself a blocking ``PARSE`` finding — a
linter that silently skips unparseable determinism-critical code would
be the exact failure mode this suite exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .baseline import Baseline
from .findings import Finding, assign_fingerprints
from .noqa import is_suppressed
from .rules import RULES, LintContext
from .scope import det_closure, import_edges
from .sources import LintConfig, SourceFile, parse_source

_SKIP_DIRS = {"__pycache__", ".git", ".cache", "results", "quarantine"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    files: list[SourceFile] = field(default_factory=list)
    #: Findings that block (not suppressed, not baselined).
    blocking: list[Finding] = field(default_factory=list)
    #: Findings excused by the committed baseline.
    baselined: list[Finding] = field(default_factory=list)
    #: Count of findings silenced by ``# repro: noqa`` comments.
    suppressed: int = 0
    #: Baseline entries that no longer match any finding.
    stale_baseline: list[dict] = field(default_factory=list)
    det_scope: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.blocking

    def summary(self) -> dict:
        return {
            "files": len(self.files),
            "blocking": len(self.blocking),
            "baselined": len(self.baselined),
            "suppressed": self.suppressed,
            "stale_baseline": len(self.stale_baseline),
            "det_scope_modules": len(self.det_scope),
            "ok": self.ok,
        }


def collect_files(paths: list[str | Path], base: Path | None = None) -> list[SourceFile]:
    """Parse every ``.py`` file under ``paths`` (deduplicated, sorted)."""
    base = base or Path.cwd()
    seen: set[Path] = set()
    ordered: list[Path] = []

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            ordered.append(resolved)

    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIRS or part.startswith(".")
                       for part in sub.relative_to(path).parts[:-1]):
                    continue
                add(sub)
        elif path.suffix == ".py":
            add(path)
    return [parse_source(path, base=base) for path in ordered]


def stale_config_entries(files: list[SourceFile], config: LintConfig) -> list[str]:
    """DET configuration entries (roots, core suffixes, allowed-call
    paths) that match no linted file.

    An entry is checked when the linted files include the top-level
    package it names (``<package>/__init__.py``), i.e. whenever the tree
    the configuration describes is the tree being linted; linting a
    subdirectory or a fixture tree checks nothing, and ``det_all`` runs
    skip the check.
    """
    if config.det_all:
        return []
    modules = {f.module for f in files if f.module is not None}
    packages = {f.module for f in files if f.is_package_init and f.module is not None}
    stale = [
        f"det_roots: {root}" for root in config.det_roots
        if root.partition(".")[0] in packages and root not in modules
    ]
    paths = [("det_core_suffixes", suffix) for suffix in config.det_core_suffixes]
    paths += [("det_allowed_calls", suffix) for suffix, _ in config.det_allowed_calls]
    for field_name, suffix in paths:
        if (suffix.partition("/")[0] in packages
                and not any(f.endswith((suffix,)) for f in files)):
            stale.append(f"{field_name}: {suffix}")
    return stale


def build_det_scope(files: list[SourceFile], config: LintConfig) -> set[str]:
    """The determinism closure over the linted files' import graph."""
    known = {f.module for f in files if f.module is not None}
    graph: dict[str, set[str]] = {}
    for src in files:
        if src.module is None or src.tree is None:
            continue
        graph[src.module] = import_edges(
            src.tree, src.module, src.is_package_init, known
        )
    return det_closure(graph, config.det_roots)


def run_lint(
    paths: list[str | Path],
    config: LintConfig | None = None,
    baseline: Baseline | None = None,
    base: Path | None = None,
) -> LintResult:
    """Lint ``paths`` and return the filtered result (see module docstring)."""
    config = config or LintConfig()
    files = collect_files(paths, base=base)
    stale = stale_config_entries(files, config)
    if stale:
        # A ValueError, like an unknown rule family: the CLI exits 2.
        raise ValueError(
            "lint configuration names files the linted tree does not have "
            "(prune them from LintConfig): " + ", ".join(stale)
        )
    ctx = LintContext(
        files=files, config=config, det_scope=build_det_scope(files, config),
    )

    raw: list[Finding] = []
    for src in files:
        if src.parse_error is not None:
            raw.append(Finding(
                rule="PARSE", code="PARSE001", path=src.rel, line=1, col=0,
                message=src.parse_error,
                hint="fix the file; unparseable code cannot be verified",
            ))
    for family in config.rules:
        rule_cls = RULES.get(family)
        if rule_cls is None:
            raise ValueError(
                f"unknown lint rule {family!r} (known: {', '.join(sorted(RULES))})"
            )
        raw.extend(rule_cls().run(ctx))

    lines_by_path = {src.rel: src.lines for src in files}
    noqa_by_path = {src.rel: src.noqa for src in files}
    fingerprinted = assign_fingerprints(raw, lines_by_path)

    kept: list[Finding] = []
    suppressed = 0
    for finding in fingerprinted:
        noqa = noqa_by_path.get(finding.path, {})
        if is_suppressed(finding.rule, finding.code, finding.line, noqa):
            suppressed += 1
        else:
            kept.append(finding)

    result = LintResult(files=files, suppressed=suppressed,
                        det_scope=ctx.det_scope)
    if baseline is None:
        result.blocking = kept
    else:
        result.blocking, result.baselined, result.stale_baseline = (
            baseline.split(kept)
        )
    return result
