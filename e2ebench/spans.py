"""Span tracing from outside the program, and the per-layer metrics.

:class:`Tracer` wraps public entry points of the program's layers (see
:data:`TARGETS`) by replacing the class attributes with timing wrappers
while it is installed, and restores the originals when it is removed.
Each call on the client thread records a span — name, start, end and
the index of the enclosing span — into flat arrays kept in memory and
written out once, at exit.  Calls on other threads (push readers,
dispatch workers) run unwrapped.

A layer's self time is its span's duration minus the durations of its
direct child spans; spans on one thread nest, so the children cover
disjoint parts of the parent's interval.
"""

from __future__ import annotations

import gzip
import json
import threading
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, class, attribute).  Engine updates are wrapped at
#: ``apply`` and ``apply_with_delta``, the two entry points the session
#: drives; nested calls inside one engine show up as child spans and
#: are excluded from the per-call means below.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("api.plan", "repro.api.planner", "Planner", "plan"),
    ("api.view", "repro.api.session", "Session", "view"),
    ("api.session_apply", "repro.api.session", "Session", "apply"),
    ("api.batch_commit", "repro.api.session", "Batch", "__exit__"),
    ("api.cursor_open", "repro.api.session", "View", "cursor"),
    ("core.build", "repro.api.planner", "Plan", "build"),
    ("core.update", "repro.core.engine", "QHierarchicalEngine", "apply"),
    ("core.delta", "repro.core.engine", "QHierarchicalEngine", "apply_with_delta"),
    ("core.count", "repro.core.engine", "QHierarchicalEngine", "count"),
    ("core.apply_all", "repro.core.engine", "QHierarchicalEngine", "apply_all"),
    ("core.kernel", "repro.core.vectorized", "VectorizedKernel", "apply_groups"),
    ("ivm.update", "repro.ivm.delta", "DeltaIVMEngine", "apply"),
    ("ivm.delta", "repro.ivm.delta", "DeltaIVMEngine", "apply_with_delta"),
    ("ucq.update", "repro.extensions.ucq", "UnionEngine", "apply"),
    ("ucq.delta", "repro.extensions.ucq", "UnionEngine", "apply_with_delta"),
    ("storage.bulk_insert", "repro.storage.database", "Database", "bulk_insert"),
    ("storage.fold_stream", "repro.storage.database", "Database", "fold_stream"),
    ("server.apply", "repro.serve.server", "Server", "apply"),
    ("server.apply_all", "repro.serve.server", "Server", "apply_all"),
    ("server.count", "repro.serve.server", "Server", "count"),
    ("server.fetch", "repro.serve.server", "Server", "fetch"),
    ("cursors.fetch", "repro.serve.cursors", "Cursor", "fetch"),
    ("subs.poll", "repro.serve.subscriptions", "Subscription", "poll"),
    ("cluster.spawn", "repro.serve.cluster", "ShardCluster", "__init__"),
    ("cluster.adopt", "repro.serve.cluster", "ClusterClient", "adopt_session"),
    ("cluster.apply", "repro.serve.cluster", "ClusterClient", "apply"),
    ("cluster.apply_stream", "repro.serve.cluster", "ClusterClient", "apply_stream"),
    ("cluster.count", "repro.serve.cluster", "ClusterClient", "count"),
    ("cluster.fetch", "repro.serve.cluster", "ClusterClient", "fetch"),
    ("cluster.poll", "repro.serve.cluster", "ClusterClient", "poll"),
    ("journal.record", "repro.serve.journal", "CommandJournal", "record"),
    ("journal.record_many", "repro.serve.journal", "CommandJournal", "record_many"),
)

_ENGINE_LAYERS = ("core", "ucq", "ivm")


class Tracer:
    """In-memory span recorder with install/remove of its wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._saved: List[Tuple[type, str, Optional[object]]] = []
        #: rows the cursors' engine streams yielded, and rows their
        #: pages returned, while installed
        self.walked = 0
        self.emitted = 0

    # -- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name: str) -> int:
        index = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    # -- wrappers --------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(self, name: str, function: Callable, on_result=None) -> Callable:
        tracer = self
        thread = self._thread

        def traced(*args, **kwargs):
            if threading.get_ident() != thread:
                return function(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        if self._saved:
            return
        import importlib

        for name, module_name, class_name, attribute in TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            own = owner.__dict__.get(attribute)
            function = getattr(owner, attribute)
            on_result = None
            if name == "cursors.fetch":
                on_result = self._count_emitted
            self._saved.append((owner, attribute, own))
            setattr(owner, attribute, self._wrap(name, function, on_result))
        # Cursors pull rows from the engine through this module-level
        # helper; counting what it yields gives rows walked per page.
        cursors = importlib.import_module("repro.serve.cursors")
        original = cursors.bound_stream
        tracer = self

        def counting_stream(engine, binding):
            for row in original(engine, binding):
                tracer.walked += 1
                yield row

        self._saved.append((cursors, "bound_stream", original))  # type: ignore[arg-type]
        cursors.bound_stream = counting_stream

    def _count_emitted(self, rows) -> None:
        self.emitted += len(rows)

    def remove(self) -> None:
        for owner, attribute, own in reversed(self._saved):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def summary(self) -> "Summary":
        return Summary(self)

    def dump(self, path) -> None:
        """Write every span (gzip'd JSON of parallel arrays)."""
        with gzip.open(path, "wt") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                },
                handle,
            )


class Summary:
    """Per-span-name aggregates: counts, durations, self times, and the
    root (benchmark operation) each span ran under."""

    def __init__(self, tracer: Tracer):
        names, name, parent = tracer.names, tracer.name, tracer.parent
        start, end = tracer.start, tracer.end
        n = len(name)
        duration = [end[i] - start[i] for i in range(n)]
        children = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p] += duration[i]
                root[i] = root[p]
        self.n = n
        self.names = names
        self._name = name
        self._parent = parent
        self._duration = duration
        self._self = [duration[i] - children[i] for i in range(n)]
        self._root = root
        by_name: Dict[int, List[int]] = defaultdict(list)
        for i in range(n):
            by_name[name[i]].append(i)
        self._by_name = by_name

    def spans(self, name: str, top_level: bool = False, root: str = ""):
        """Indices of spans called ``name``.  ``top_level`` drops spans
        nested in another span of an engine layer (a union's disjunct
        engines, an engine's own inner calls); ``root`` keeps only spans
        under a benchmark operation whose name starts with it (``"op."``:
        any operation of the measured phases, not set-up or checks)."""
        if name not in self.names:
            return []
        target = self.names.index(name)
        names, parent, root_of = self.names, self._parent, self._root
        out = []
        for i in self._by_name[target]:
            if top_level:
                p = parent[i]
                if p >= 0 and names[self._name[p]].split(".")[0] in _ENGINE_LAYERS:
                    continue
            if root and (root_of[i] == i or not names[self._name[root_of[i]]].startswith(root)):
                continue
            out.append(i)
        return out

    def count(self, name: str, **kw) -> int:
        return len(self.spans(name, **kw))

    def total(self, name: str, self_time: bool = False, **kw) -> float:
        values = self._self if self_time else self._duration
        return sum(values[i] for i in self.spans(name, **kw))

    def mean(self, name: str, self_time: bool = False, **kw) -> float:
        indices = self.spans(name, **kw)
        if not indices:
            return 0.0
        values = self._self if self_time else self._duration
        return sum(values[i] for i in indices) / len(indices)

    def under_roots(self, root: str, names: Tuple[str, ...]) -> float:
        """Mean over ``root`` operations of the time spent in spans
        called ``names`` beneath each of them."""
        if root not in self.names:
            return 0.0
        root_id = self.names.index(root)
        wanted = {self.names.index(n) for n in names if n in self.names}
        per_root: Dict[int, float] = defaultdict(float)
        roots = 0
        for i in range(self.n):
            if self._name[i] == root_id and self._parent[i] < 0:
                roots += 1
            elif self._name[i] in wanted and self._name[self._root[i]] == root_id:
                per_root[self._root[i]] += self._duration[i]
        return sum(per_root.values()) / roots if roots else 0.0


# -- registry snapshots (the program's own instruments) --------------------


def histogram_delta(before: dict, after: dict, prefix: str) -> Tuple[float, int]:
    """(sum, count) added between two registry snapshots to every
    histogram series whose key starts with ``prefix``."""
    total, count = 0.0, 0
    old = (before or {}).get("histograms", {})
    for key, state in (after or {}).get("histograms", {}).items():
        if not key.startswith(prefix):
            continue
        prior = old.get(key, {"sum": 0.0, "count": 0})
        total += state["sum"] - prior["sum"]
        count += state["count"] - prior["count"]
    return total, count


def histogram_mean_us(before: dict, after: dict, prefixes: Tuple[str, ...]) -> float:
    total, count = 0.0, 0
    for prefix in prefixes:
        s, c = histogram_delta(before, after, prefix)
        total += s
        count += c
    return 1e6 * total / count if count else 0.0


def counter_delta(before: dict, after: dict, prefix: str) -> float:
    old = (before or {}).get("counters", {})
    return sum(
        value - old.get(key, 0)
        for key, value in (after or {}).get("counters", {}).items()
        if key.startswith(prefix)
    )
