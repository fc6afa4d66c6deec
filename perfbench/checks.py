"""Output checks: artifact digests, failing points, paper error.

An artifact tree is what ``repro run/sweep --out DIR`` writes:
``summary.json`` plus one ``rows.csv`` and ``checks.csv`` per point.
None of it carries a fingerprint, timestamp or host, so a point's
digest (its summary record plus its two CSV files) is the same on
every run, commit and machine that computes the same result.  The
journal is deliberately left out: its header carries the code
fingerprint, which changes with every commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Set


def _summary(out_dir: Path) -> list:
    return json.loads((Path(out_dir) / "summary.json").read_text(
        encoding="utf-8"))["runs"]


def point_digests(out_dir) -> Dict[str, str]:
    """``scenario/point`` -> sha-256 of that point's artifacts.

    A tree without a readable ``summary.json`` has no points.
    """
    out = Path(out_dir)
    try:
        records = _summary(out)
    except (OSError, ValueError, KeyError):
        return {}
    digests = {}
    for record in records:
        digest = hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()
        )
        for key in ("rows_csv", "checks_csv"):
            if key in record:
                try:
                    digest.update((out / record[key]).read_bytes())
                except OSError:
                    digest.update(b"\0missing")
        digests[f"{record['scenario']}/{record['point']}"] = (
            digest.hexdigest()
        )
    return digests


def tree_digest(points: Dict[str, str]) -> str:
    """One digest for a whole tree, from its point digests."""
    digest = hashlib.sha256()
    for key in sorted(points):
        digest.update(f"{key} {points[key]}\n".encode())
    return digest.hexdigest()


def failing_points(out_dir) -> Set[str]:
    """Points that raised or failed their own checks."""
    try:
        records = _summary(Path(out_dir))
    except (OSError, ValueError, KeyError):
        return set()
    return {
        f"{r['scenario']}/{r['point']}" for r in records if not r.get("ok")
    }


def wrong_points(points: Dict[str, str],
                 reference: Dict[str, str]) -> Set[str]:
    """Points missing from, extra to, or different from ``reference``."""
    return {
        key for key in set(points) | set(reference)
        if points.get(key) != reference.get(key)
    }


def paper_error_max(out_dir) -> float:
    """Largest |measured - paper| / paper over the tree's two-sided
    paper-vs-measured checks (``at_least`` checks bound one side only,
    so overshooting them is not an error)."""
    errors = [
        abs(check["error"])
        for record in _summary(Path(out_dir))
        for check in record.get("checks", ())
        if check.get("mode") == "two_sided"
    ]
    return max(errors, default=0.0)
