"""The benchmark's own span ledger and timing statistics.

Spans are recorded from outside the program: :class:`Tracer` replaces a
layer's public entry point (a method on the class callers resolve, or a
module-level function) with a wrapper that opens a span around the original
call, and puts the original back on :meth:`Tracer.uninstall`.  Spans live in
memory as ``(name, start, end, parent)`` rows and are dumped when the run
ends.  Nothing here imports the program, so the arithmetic is testable on its
own.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Container spans.  Their self time is work not covered by a wrapped layer,
#: so it counts as unattributed rather than as a leaf.
PHASES = ("op", "feataug.augment", "feataug.apply", "qti.identify", "sqlgen.generate")

#: Engine counters folded from the public ``QueryEngine.stats`` per op.
ENGINE_FIELDS = (
    "result_hits",
    "result_misses",
    "mask_hits",
    "mask_misses",
    "sort_hits",
    "sort_misses",
    "group_index_builds",
    "staleness_evictions",
    "seconds_masking",
    "seconds_indexing",
    "seconds_sorting",
    "seconds_aggregating",
)


# ----------------------------------------------------------------------
# Timing statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: Sequence[float], min_beyond: int = 10):
    """``(p, value)`` for the highest whole percentile (at most 99) that
    leaves at least *min_beyond* samples above it, by nearest rank; ``None``
    when there are too few samples for any such percentile."""
    n = len(samples)
    if n <= min_beyond:
        return None
    p = min(99, 100 * (n - min_beyond) // n)
    rank = -(-p * n // 100)  # ceil(p * n / 100), 1-based nearest rank
    return p, sorted(samples)[max(rank, 1) - 1]


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, the tail percentile of :func:`tail_percentile` and the count."""
    tail = tail_percentile(samples)
    return {
        "n": len(samples),
        "p50": statistics.median(samples) if samples else float("nan"),
        "tail_p": tail[0] if tail else None,
        "tail": tail[1] if tail else float("nan"),
    }


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered_length(intervals: Iterable[tuple], low: float, high: float) -> float:
    """Length of the union of *intervals* clipped to ``[low, high]``."""
    clipped = sorted(
        (max(s, low), min(e, high)) for s, e in intervals if min(e, high) > max(s, low)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def roots(spans: Sequence[Sequence]) -> List[int]:
    """Index of the outermost ancestor of every span (parents precede children)."""
    out: List[int] = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent is None else out[parent])
    return out


class Ledger:
    """Per-layer totals of a list of spans grouped under root ``op`` spans."""

    def __init__(self, spans: Sequence[Sequence], root_kinds: Dict[int, str]):
        self.spans = list(spans)
        self.self_s = self_times(self.spans)
        self.root_of = roots(self.spans)
        #: root span index -> op kind (e.g. "read" / "write" on serve-append)
        self.root_kinds = dict(root_kinds)

    def op_seconds(self, kind: Optional[str] = None) -> List[float]:
        return [
            self.spans[i][2] - self.spans[i][1]
            for i, k in self.root_kinds.items()
            if kind is None or k == kind
        ]

    def self_by_name(self, kind: Optional[str] = None) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if kind is None or self.root_kinds.get(self.root_of[i]) == kind:
                totals[span[0]] += self.self_s[i]
        return dict(totals)

    def total_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def leaf_sums_per_root(self) -> Dict[int, float]:
        """Summed leaf self time inside each root span."""
        sums: Dict[int, float] = {i: 0.0 for i in self.root_kinds}
        for i, span in enumerate(self.spans):
            if span[0] not in PHASES and self.root_of[i] in sums:
                sums[self.root_of[i]] += self.self_s[i]
        return sums

    def double_counted(self, tolerance: float = 1e-9) -> List[int]:
        """Root spans whose summed leaf self times exceed their duration."""
        sums = self.leaf_sums_per_root()
        return [
            i
            for i, total in sums.items()
            if total > self.spans[i][2] - self.spans[i][1] + tolerance
        ]


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class Patches:
    """Attribute replacements that can all be put back."""

    def __init__(self):
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Tracer:
    """In-memory spans and counts at the layer entry points it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.root_kinds: Dict[int, str] = {}
        self.engine_totals: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []
        self._patches = Patches()
        self._engines: Dict[int, tuple] = {}

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    @contextmanager
    def op(self, kind: str = "op"):
        """Root span of one timed op.  Wrapped calls made outside an op (the
        output checks) are not recorded."""
        self.fold_engines(book=False)
        index = self.begin("op")
        self.root_kinds[index] = kind
        try:
            yield
        finally:
            self.end(index)
            self.fold_engines()

    # -- wrappers ------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable] = None,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``count(args, kwargs, result) -> (counter name, amount)`` books one
        extra count per call; ``on_call(args)`` runs before the call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._open:
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                key, amount = count(args, kwargs, result)
                tracer.counts[key] += amount
            return result

        self._patches.set(owner, attr, traced)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- engine counters -----------------------------------------------
    def see_engine(self, engine) -> None:
        """Start following *engine*'s public stats (first sight = baseline)."""
        entry = self._engines.get(id(engine))
        if entry is None or entry[0]() is not engine:  # ids of dead engines get reused
            self._engines[id(engine)] = (weakref.ref(engine), _engine_snapshot(engine))

    def fold_engines(self, book: bool = True) -> None:
        """Book every followed engine's counters since its last snapshot
        (``book=False`` only takes a new snapshot)."""
        for key, (ref, baseline) in list(self._engines.items()):
            engine = ref()
            if engine is None:
                del self._engines[key]
                continue
            now = _engine_snapshot(engine)
            for field in ENGINE_FIELDS if book else ():
                self.engine_totals[field] += now[field] - baseline[field]
            self._engines[key] = (ref, now)

    # -- output ----------------------------------------------------------
    def ledger(self) -> Ledger:
        return Ledger(self.spans, self.root_kinds)

    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, kind)."""
        with open(path, "w") as handle:
            for i, (name, start, end, parent) in enumerate(self.spans):
                row = {"i": i, "name": name, "start": start, "end": end, "parent": parent}
                if i in self.root_kinds:
                    row["kind"] = self.root_kinds[i]
                handle.write(json.dumps(row) + "\n")


def _engine_snapshot(engine) -> Dict[str, float]:
    stats = engine.stats.as_dict()
    return {field: stats[field] for field in ENGINE_FIELDS}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

