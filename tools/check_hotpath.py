#!/usr/bin/env python3
"""Static check: kernel hot paths keep the metrics overhead contract.

The observability layer (PR 7) promises that when metrics are disabled
the kernels pay exactly one attribute check (``_OBS.enabled``) per
coarse boundary — never a registry call per event/cycle — and that hot
paths never call ``snapshot()``/``reset()`` (those walk every metric
and belong to the CLI/telemetry layer).  This script encodes that
contract as an AST lint over the hot-path packages so a refactor
cannot silently regress it:

* every ``_OBS.counter/gauge/histogram(...)`` call must sit in
  the taken branch of an ``if``/conditional expression whose test
  mentions ``_OBS.enabled`` — or inside a ``_obs_*`` helper function
  (whose body is bulk-publish code);
* every call *of* a ``_obs_*`` helper must itself be guarded the same
  way (helpers keep call sites cheap only if the guard stays outside);
* ``_OBS.snapshot()`` and ``_OBS.reset()`` never appear at all.

Run from the repository root (CI does)::

    python tools/check_hotpath.py            # exit 1 on violations
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

#: packages whose modules are event/cycle hot paths
HOT_PACKAGES = ("src/repro/sim", "src/repro/noc", "src/repro/compiled")

#: registry methods that create/update metrics (cheap only when guarded)
METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})

#: registry methods hot paths must never call
FORBIDDEN_METHODS = frozenset({"snapshot", "reset"})

Violation = Tuple[str, int, str]


def _mentions_enabled(test: ast.AST) -> bool:
    """Does this guard expression read ``_OBS.enabled``?"""
    for node in ast.walk(test):
        if (isinstance(node, ast.Attribute)
                and node.attr == "enabled"
                and isinstance(node.value, ast.Name)
                and node.value.id == "_OBS"):
            return True
    return False


def _obs_method(node: ast.AST) -> str:
    """The method name of an ``_OBS.<method>(...)`` call, or ``""``."""
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "_OBS"):
        return node.func.attr
    return ""


def _is_helper_call(node: ast.AST) -> bool:
    """A call of a ``_obs_*`` bulk-publish helper (any receiver)."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("_obs_"))


class _Scanner:
    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.violations: List[Violation] = []

    def scan(self, node: ast.AST, guarded: bool,
             in_helper: bool) -> None:
        if isinstance(node, ast.If) and _mentions_enabled(node.test):
            self.scan(node.test, guarded, in_helper)
            for child in node.body:
                self.scan(child, True, in_helper)
            for child in node.orelse:  # the *disabled* branch
                self.scan(child, guarded, in_helper)
            return
        if isinstance(node, ast.IfExp) and _mentions_enabled(node.test):
            self.scan(node.test, guarded, in_helper)
            self.scan(node.body, True, in_helper)
            self.scan(node.orelse, guarded, in_helper)
            return
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_obs_")):
            # a bulk-publish helper: its body is exempt, its call
            # sites are not (checked below)
            for child in ast.iter_child_nodes(node):
                self.scan(child, guarded, True)
            return

        method = _obs_method(node)
        if method in FORBIDDEN_METHODS:
            self.violations.append((
                self.filename, node.lineno,
                f"_OBS.{method}() is forbidden in hot-path modules; "
                f"snapshotting belongs to the CLI/telemetry layer",
            ))
        elif method in METRIC_METHODS and not (guarded or in_helper):
            self.violations.append((
                self.filename, node.lineno,
                f"_OBS.{method}(...) outside an `if _OBS.enabled` "
                f"guard; disabled-mode cost must stay one attribute "
                f"check",
            ))
        elif _is_helper_call(node) and not (guarded or in_helper):
            self.violations.append((
                self.filename, node.lineno,
                f"call of {node.func.attr}() is unguarded; "  # type: ignore[attr-defined]
                f"wrap the call site in `if _OBS.enabled` so the "
                f"helper stays free when metrics are off",
            ))
        for child in ast.iter_child_nodes(node):
            self.scan(child, guarded, in_helper)


def check_source(source: str, filename: str = "<string>"
                 ) -> List[Violation]:
    """All contract violations in one module's source text."""
    tree = ast.parse(source, filename=filename)
    scanner = _Scanner(filename)
    scanner.scan(tree, guarded=False, in_helper=False)
    return scanner.violations


def check_tree(root: Path) -> List[Violation]:
    """Violations across every hot-path module under ``root``."""
    violations: List[Violation] = []
    for package in HOT_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            rel = str(path.relative_to(root))
            violations.extend(check_source(path.read_text(), rel))
    return violations


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    missing = [p for p in HOT_PACKAGES if not (root / p).is_dir()]
    if missing:
        print(
            f"check_hotpath: {', '.join(missing)} not found under "
            f"{root.resolve()}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    violations = check_tree(root)
    for filename, lineno, message in violations:
        print(f"{filename}:{lineno}: {message}", file=sys.stderr)
    if violations:
        print(f"{len(violations)} hot-path metrics violation(s)",
              file=sys.stderr)
        return 1
    print("hot-path metrics contract holds "
          f"({', '.join(HOT_PACKAGES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
