"""In-memory spans for the benchmark's traced runs.

A :class:`Tracer` records one span per call into a wrapped function:
``(id, name, start, end, parent, pass_id, note)``.  Spans nest per
thread (the parent is the innermost open span on the calling thread),
carry the id of the benchmark pass that caused them, and stay in
memory until the run ends and :meth:`Tracer.dump` writes them out.

Wrapping happens from outside the program: :meth:`Tracer.patch`
replaces a class attribute or a module-level function (in every
``repro`` module that bound it by name) with a timing wrapper, and
:meth:`Tracer.restore` puts the originals back, so untraced passes run
the program's own code.

The arithmetic the per-layer metrics rest on lives here too:
:func:`covered` (length of a union of intervals inside a window),
:func:`self_times` (each span minus the part its children cover) and
:func:`layer_totals`.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: span tuple fields, in order
FIELDS = ("id", "name", "start", "end", "parent", "pass_id", "note")

Span = Tuple[int, str, float, float, Optional[int], Optional[int], object]
Interval = Tuple[float, float]
#: ``note(args, result)`` -> the value stored in a span's note field
Note = Callable[[tuple, object], object]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pass_id: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def adopt(self, spans: Sequence[Span]) -> List[Span]:
        """Append another process's spans under fresh ids; returns them.

        Parents are remapped with their children, so a foreign tree
        stays a tree and never collides with this tracer's ids.
        """
        new_ids = {s[0]: self._new_id() for s in spans}
        adopted = [
            (new_ids[s[0]], s[1], s[2], s[3], new_ids.get(s[4]), s[5], s[6])
            for s in spans
        ]
        with self._lock:
            self.spans.extend(adopted)
        return adopted

    def call(self, name: str, func: Callable, args, kwargs,
             note: Optional[Note] = None):
        """Run ``func`` inside a span named ``name``.

        ``note(args, result)``, computed after the clock stops and only
        when ``func`` returned, becomes the span's note.  A call that
        re-enters a span of the same name on the same thread is not
        recorded again, so a layer's total never counts recursion
        twice.
        """
        stack = self._stack()
        if any(open_name == name for _, open_name in stack):
            return func(*args, **kwargs)
        span_id = self._new_id()
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        returned = False
        result = None
        try:
            result = func(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            value = (note(args, result)
                     if note is not None and returned else None)
            with self._lock:
                self.spans.append(
                    (span_id, name, start, end, parent, self.pass_id, value)
                )

    # -- patching -----------------------------------------------------
    def wrap(self, func: Callable, name: str,
             note: Optional[Note] = None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, args, kwargs, note)

        return traced

    def patch(self, owner: object, attr: str, name: str,
              note: Optional[Note] = None) -> None:
        """Trace calls to ``owner.attr`` under span ``name``.

        For a class, the attribute must be defined on the class itself.
        For a module-level function, every loaded ``repro`` module that
        holds the same function object (``from x import f``) is
        rebound too, so no caller bypasses the span.
        """
        original = getattr(owner, attr)
        traced = self.wrap(original, name, note)
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(
                    f"{owner.__name__}.{attr} is inherited; patch the "
                    f"class that defines it"
                )
            self._patches.append((owner, attr, original))
            setattr(owner, attr, traced)
            return
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def load(path) -> List[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        return [
            tuple(json.loads(line)[field] for field in FIELDS)
            for line in fh
            if line.strip()
        ]


# ----------------------------------------------------------------------
# arithmetic


def covered(intervals: Iterable[Interval], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, by span id."""
    children: Dict[int, List[Interval]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    return {
        s[0]: (s[3] - s[2]) - covered(children.get(s[0], ()), s[2], s[3])
        for s in spans
    }


def layer_totals(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed duration of each span name."""
    totals: Dict[str, float] = {}
    for s in spans:
        totals[s[1]] = totals.get(s[1], 0.0) + (s[3] - s[2])
    return totals


def counts(spans: Iterable[Span]) -> Dict[str, int]:
    """Number of spans of each name."""
    out: Dict[str, int] = {}
    for s in spans:
        out[s[1]] = out.get(s[1], 0) + 1
    return out
