"""One client-side interface over the three serving surfaces.

The workload loop speaks only this interface; each class forwards to the
program's own public calls, so what the loop times is what a client of
that surface sees.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class Served:
    """A threads ``Server`` or a processes ``ClusterClient``: both speak
    the same handle-based request surface."""

    def __init__(self, front):
        self.front = front
        self.insert = front.insert
        self.delete = front.delete
        self.count = front.count
        self.fetch = front.fetch
        self.close_cursor = front.close_cursor
        self.poll = front.poll
        self.result_set = front.result_set

    def open_cursor(self, view: str, binding: Dict[str, int] = None):
        return self.front.open_cursor(view, binding=binding)

    def subscribe(self, view: str):
        return self.front.subscribe(view)


class ServerSurface(Served):
    """In-process threads ``Server``; batches go through ``apply_all`` in
    chunks, each under one lock acquisition."""

    chunk = 256

    def batch(self, commands: Sequence) -> List[bool]:
        out: List[bool] = []
        for start in range(0, len(commands), self.chunk):
            out.extend(self.front.apply_all(commands[start : start + self.chunk]))
        return out

    def close(self) -> None:
        self.front.close()


class ClusterSurface(Served):
    """Supervised process cluster; batches ride ``apply_stream``."""

    chunk = 256

    def batch(self, commands: Sequence) -> int:
        return self.front.apply_stream(commands, chunk=self.chunk)

    def close(self) -> None:
        self.front.close()

    def worker_pids(self) -> Tuple[int, ...]:
        stats = self.front.cluster_stats()
        return tuple(
            int(entry["pid"])
            for key, entry in stats.items()
            if isinstance(key, int) and entry and entry.get("pid")
        )


class SessionSurface:
    """A ``Session`` used directly: views' cursors and subscriptions are
    the handles, batches are ``Session.batch()`` transactions."""

    def __init__(self, session):
        self.session = session
        self.insert = session.insert
        self.delete = session.delete

    def count(self, view: str) -> int:
        return self.session[view].count()

    def open_cursor(self, view: str, binding: Dict[str, int] = None):
        return self.session[view].cursor(binding=binding)

    def fetch(self, cursor, n: int):
        return cursor.fetch(n)

    def close_cursor(self, cursor) -> None:
        cursor.close()

    def subscribe(self, view: str):
        return self.session[view].subscribe()

    def poll(self, subscription):
        return subscription.poll()

    def result_set(self, view: str):
        return self.session[view].result_set()

    def batch(self, commands: Sequence) -> Dict[str, int]:
        with self.session.batch() as batch:
            batch.apply_all(commands)
        return dict(batch.stats or {})

    def close(self) -> None:
        pass
