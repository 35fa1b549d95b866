"""Docs drift gate: the USAGE.md rule table must match the registry.

``adapipe lint --list-rules`` is generated from the rule registry; the
table in ``docs/USAGE.md`` ("Static analysis: adalint") is hand-written.
This module diffs the two so CI fails when a rule is added, renamed, or
re-severitied without the docs following.

The table rows are recognised anywhere in the file by shape::

    | `rule-name` | severity | anything |

Run it directly (exit 1 on drift)::

    PYTHONPATH=src python -m repro.analysis.docs_sync docs/USAGE.md
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List

#: A table row whose first cell is a backticked rule name and whose
#: second cell is a bare severity word.
_ROW = re.compile(r"^\|\s*`(?P<rule>[a-z][a-z0-9-]*)`\s*\|\s*(?P<severity>\w+)\s*\|")


def documented_rules(text: str) -> Dict[str, str]:
    """rule name -> documented severity, from USAGE.md table rows."""
    rows = {}
    for line in text.splitlines():
        match = _ROW.match(line.strip())
        if match:
            rows[match.group("rule")] = match.group("severity")
    return rows


def diff_rules(doc_path: Path) -> List[str]:
    """Human-readable drift lines; empty when docs and registry agree."""
    from repro.analysis import default_rules

    registered = {rule.name: rule.severity for rule in default_rules()}
    documented = documented_rules(doc_path.read_text())
    problems = []
    for name in sorted(set(registered) - set(documented)):
        problems.append(
            f"rule {name!r} is registered but missing from the "
            f"{doc_path.name} rule table"
        )
    for name in sorted(set(documented) - set(registered)):
        problems.append(
            f"rule {name!r} is documented in {doc_path.name} but not "
            "registered (renamed or removed?)"
        )
    for name in sorted(set(registered) & set(documented)):
        if registered[name] != documented[name]:
            problems.append(
                f"rule {name!r}: registry severity {registered[name]!r} "
                f"!= documented {documented[name]!r}"
            )
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.analysis.docs_sync docs/USAGE.md",
              file=sys.stderr)
        return 2
    doc_path = Path(argv[0])
    if not doc_path.is_file():
        print(f"docs_sync: no such file: {doc_path}", file=sys.stderr)
        return 2
    problems = diff_rules(doc_path)
    for problem in problems:
        print(f"docs_sync: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs_sync: {doc_path} rule table matches the registry")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
