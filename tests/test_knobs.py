"""The ``REPRO_*`` environment knobs are an inventory, not folklore.

Every knob the package or the benches read must be listed in the README
knob table, and every row of that table must name a knob the code still
reads — so a knob can be neither added nor left behind without the docs
saying so.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


def knobs_in_code() -> set[str]:
    """Every string literal under ``src/repro`` and ``benchmarks/`` that
    is exactly a ``REPRO_*`` name (how every knob is spelled where it is
    read)."""
    found: set[str] = set()
    for root in (REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"):
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and KNOB.fullmatch(node.value)):
                    found.add(node.value)
    return found


def knobs_in_readme() -> set[str]:
    """The first-column names of the README knob table."""
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", (REPO_ROOT / "README.md").read_text(
        encoding="utf-8"), flags=re.MULTILINE)
    return set(rows)


def test_readme_knob_table_matches_the_code():
    code = knobs_in_code()
    readme = knobs_in_readme()
    assert code, "no REPRO_* knob found in the sources; the scan is broken"
    assert code - readme == set(), "knobs read by the code but missing from README"
    assert readme - code == set(), "README lists knobs no code reads any more"
