"""A speed probe that corrects timings for a machine whose speed drifts.

On the shared 2-CPU machine this benchmark was built on, a fixed piece of
pure-Python work took between its best time and 2.4 times that from one
second to the next, and the medians of 30-second runs of the identical
`sweep` inputs moved by 22-36% between runs.  Medians within a run cannot
remove a drift that outlasts the run, and process CPU time drifts with
wall-clock time there (README.md, Reference seconds).

The probe runs a small fixed kernel between instances, at most every
INTERVAL_S, and remembers when each sample ran and how long it took.  An
operation's time is then reported in reference seconds: multiplied by
REFERENCE_S over the median kernel time of the samples around it.  A
machine running uniformly slower reports about the same figures; a
slower program reports larger ones.  The kernel does the kind of work
ontopath does, in code of its own, so no change to ontopath can move it.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# The kernel's time on the machine above when it ran at full speed, so that
# reference seconds read about like wall-clock seconds there.
REFERENCE_S = 0.0021
INTERVAL_S = 0.02
WINDOW = 3  # samples on each side of an operation

_SUCC = {i: ((i * 7 + 1) % 89, (i * 13 + 5) % 89, (i * 29 + 3) % 89) for i in range(89)}
_NAMES = [f"v{(i * 577) % 1200}" for i in range(1200)]
_PAIRS = {(_NAMES[i % 1200], _NAMES[(i * 31 + 7) % 1200]): {"since": i} for i in range(3000)}


def kernel() -> int:
    """Closures over a small graph, dict rows, and sorted scans of a
    1200-node name list with pair-keyed property lookups."""
    closure = set()
    for source in range(0, 89, 8):
        stack, seen = [source], {source}
        while stack:
            for nxt in _SUCC[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure.update((source, v) for v in seen)
    by_src = {}
    for u, v in sorted(closure):
        by_src.setdefault(u, []).append(v)
    rows = [{"x": u, "y": v} for u, v in sorted(closure) if v % 3 == 0]
    count = len([dict(row, z=w) for row in rows for w in by_src.get(row["y"], ())[:2]])
    for u in sorted(_NAMES)[::150]:
        for v in sorted(_NAMES)[::60]:
            props = _PAIRS.get((u, v))
            if props is not None and props.get("since", 0) > 1000:
                count += 1
    return count


class SpeedProbe:
    """Samples the kernel's time; one per process, one thread."""

    def __init__(self):
        self.at = []     # sample start times, ascending
        self.took = []   # kernel seconds per sample
        self._due = 0.0

    def sample(self, force=False):
        """Run the kernel if INTERVAL_S has passed since the last sample (or if forced)."""
        start = perf_counter()
        if not force and start < self._due:
            return
        kernel()
        end = perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self._due = end + INTERVAL_S

    def scale_at(self, when) -> float:
        """Factor turning seconds measured at `when` into reference seconds."""
        j = bisect.bisect(self.at, when)
        return REFERENCE_S / statistics.median(self.took[max(0, j - WINDOW):j + WINDOW])

    def scale_between(self, start, end) -> float:
        """Factor for a stretch of time, from the samples taken within it."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        return REFERENCE_S / statistics.median(self.took[max(0, lo - 1):hi + 1])
