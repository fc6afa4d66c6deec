"""Calibration child: times a fixed interpreter-bound loop on request.

Run as ``python calibrate_loop.py``.  For every line read from stdin,
a step count, it runs :func:`walk` for that many steps and writes as
one line to stdout the seconds it took, scaled to ``STEPS`` steps; it
exits at end of input.  Each walk goes on from the node the last one
stopped at, so short walks cover the whole cycle in turn.  ``run.py``
starts one per run, on the run's CPU, so the loop feels the same host
load as the program while its objects stay out of the benchmark
process's peak RSS.

The loop follows a cycle through 16384 of 65536 nodes allocated
together, in a scattered order, calling a method on each that updates
a slot and a small per-node queue, and files the running total in a
dict: pointer chasing over a working set of about ten megabytes, as
the program's kernels do.  Under the host's other tenants the program
slows about as much as this walk: on a log-log fit of pass time against
walk time the slope was 1.0 to 1.1 for mesh points, 0.9 to 1.0 for a
paper scenario and 1.25 for campaign passes, against 0.7 to 0.75 for a
loop over a few kilobytes, which over-corrects.
"""

import collections
import gc
import sys
import time

NODES = 1 << 16
STEPS = 60_000


class Node:
    __slots__ = ("id", "nxt", "val", "queue")

    def __init__(self, i: int) -> None:
        self.id = i
        self.nxt = None
        self.val = 0
        self.queue = collections.deque()

    def step(self, x: int) -> int:
        self.val = (self.val + x) & 0xFFFF
        self.queue.append(x)
        if len(self.queue) > 4:
            return self.queue.popleft()
        return 0


def ring(count: int = NODES):
    """``count`` nodes; node ``i`` links to node ``(40503 i + 17) mod
    count``, which puts node 0 on a cycle of ``count / 4`` nodes."""
    nodes = [Node(i) for i in range(count)]
    for i, node in enumerate(nodes):
        node.nxt = nodes[(i * 40503 + 17) % count]
    return nodes


def walk(node: Node, steps: int):
    """Seconds a walk of ``steps`` steps from ``node`` takes, collector
    off, and the node it stopped at."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        table = {}
        for i in range(steps):
            total += node.step(i & 255)
            table[node.id & 4095] = total
            node = node.nxt
        return time.perf_counter() - start, node
    finally:
        gc.enable()


def main() -> None:
    nodes = ring()
    _, node = walk(nodes[0], NODES)  # first touch
    for line in sys.stdin:
        steps = int(line)
        seconds, node = walk(node, steps)
        print(repr(seconds * STEPS / steps), flush=True)


if __name__ == "__main__":
    main()
