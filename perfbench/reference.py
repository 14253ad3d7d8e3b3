"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared virtual machine the same code runs 20-40% faster or slower from
one half-minute to the next, as other tenants load the host.  The benchmark
runs this kernel between scenarios, for a fixed share of their time, and
divides every scenario time by how much slower than nominal the kernel ran
right after it.  The kernel never calls the program, so a change to
the program moves the corrected times and a change in the machine's speed
mostly does not.

The kernel has two parts, timed apart: an integer loop (interpreter
dispatch) and the build and breadth-first search of a dict-of-dicts graph
with a few frozenset intersections (allocation and hashing, as in the
networkx code paths).  The scenarios slow down more than the first part and
less than the second when the machine is loaded; the geometric mean of the
two parts' slowdowns tracks them best.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque

# Seconds per call of each part on an unloaded core of a 2-core Xeon virtual
# machine; they fix the scale of "reference seconds" and nothing else.
NOMINAL = (0.0018, 0.0065)
NODES = 1500
# Kernel time run per second of scenario time.
SHARE = 0.2


def slowdown(spent: list[float], calls: int) -> float:
    """Kernel time over nominal, geometric mean of the parts (1: nominal)."""
    ratios = [total / calls / nominal for total, nominal in zip(spent, NOMINAL)]
    return math.prod(ratios) ** (1 / len(ratios))


class SpeedProbe:
    """Runs the reference kernel after scenarios and gauges their slowdown.

    :meth:`after` runs a batch of kernel calls once ``SHARE`` of the timed
    work since the last batch is owed.  Each timed piece of work gets the
    slowdown of the first batch after it.
    """

    def __init__(self) -> None:
        self.debt = 0.0
        self.spent = [0.0, 0.0]
        self.calls = 0
        # Timed pieces that wait for a batch, and each piece's slowdown.
        self.pending = 0
        self.slowdowns: list[float] = []
        rng = random.Random(12345)
        edges = [(rng.randrange(v), v) for v in range(1, NODES)]
        for _ in range(NODES):
            u, v = rng.randrange(NODES), rng.randrange(NODES)
            if u != v:
                edges.append((u, v))
        self.edges = edges
        self._dispatch()
        self._allocate()

    def _dispatch(self) -> int:
        total = 0
        for i in range(20_000):
            total += i * i
        return total

    def _allocate(self) -> int:
        adjacency: dict[int, dict[int, dict[str, int]]] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, {})[v] = {"weight": u ^ v}
            adjacency.setdefault(v, {})[u] = {"weight": u ^ v}
        distance = {0: 0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in distance:
                    distance[w] = distance[u] + 1
                    queue.append(w)
        parts = [frozenset(range(i, i + 50)) for i in range(0, NODES, 50)]
        return len(distance) + sum(len(part & parts[0]) for part in parts)

    def after(self, seconds: float) -> None:
        """Pay the kernel time owed for timed work that took ``seconds``."""
        self.pending += 1
        self.debt += SHARE * seconds
        if self.debt > 0.0:
            self.settle()

    def settle(self) -> None:
        """Run a batch; give the pieces since the last one its slowdown."""
        self.slowdowns.extend([self.batch()] * self.pending)
        self.pending = 0

    def batch(self) -> float:
        """Run the kernel until no time is owed (once at least); its slowdown."""
        spent = [0.0, 0.0]
        calls = 0
        while self.debt > 0.0 or calls == 0:
            for index, part in enumerate((self._dispatch, self._allocate)):
                started = time.perf_counter()
                part()
                elapsed = time.perf_counter() - started
                spent[index] += elapsed
                self.debt -= elapsed
            calls += 1
        self.spent = [total + part for total, part in zip(self.spent, spent)]
        self.calls += calls
        return slowdown(spent, calls)

    def overall(self) -> float:
        """The slowdown over every kernel call of the run."""
        return slowdown(self.spent, self.calls)
