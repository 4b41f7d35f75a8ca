"""The benchmark's own oracle: a mirror of every relation and each view
computed with plain hash joins.

Nothing here imports the program under test.  The mirror keeps

* the base relations under set semantics, so it predicts every command's
  ``changed`` flag;
* per-key indexes and incrementally maintained view counts, so every
  ``count`` read is checked in O(1) while the benchmark runs;
* from-scratch evaluations (:meth:`Mirror.result`, :meth:`Mirror.scratch_count`)
  built from the base rows alone, for the checkpoints, plus the
  independent per-author degree formula for the Feed count.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

Row = Tuple[int, ...]


class RowSet:
    """A set of rows with O(1) uniform random choice."""

    __slots__ = ("_items", "_where")

    def __init__(self, rows: Iterable[Row] = ()):
        self._items: List[Row] = []
        self._where: Dict[Row, int] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, row: object) -> bool:
        return row in self._where

    def __iter__(self):
        return iter(self._items)

    def add(self, row: Row) -> bool:
        if row in self._where:
            return False
        self._where[row] = len(self._items)
        self._items.append(row)
        return True

    def remove(self, row: Row) -> bool:
        index = self._where.pop(row, None)
        if index is None:
            return False
        last = self._items.pop()
        if index < len(self._items):
            self._items[index] = last
            self._where[last] = index
        return True

    def choice(self, rng: random.Random) -> Row:
        return self._items[rng.randrange(len(self._items))]


class Mirror:
    """Set-semantics mirror of the social and star schemas."""

    def __init__(self, relations: Dict[str, Set[Row]]):
        self.rows: Dict[str, RowSet] = {}
        # indexes: author -> followers / posts, user -> followees,
        # star (x, y) -> zs and x -> ys
        self.followers: Dict[int, Set[int]] = defaultdict(set)
        self.followees: Dict[int, Set[int]] = defaultdict(set)
        self.posted: Dict[int, Set[int]] = defaultdict(set)
        self.hot: Set[int] = set()
        self.hot_followees: Dict[int, int] = defaultdict(int)
        self.r_by_x: Dict[int, Set[int]] = defaultdict(set)
        self.s_by_xy: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
        self.t: Set[int] = set()
        self.counts = {"Feed": 0, "Reach": 0, "Fans": 0, "Star": 0}
        for name, rows in relations.items():
            self.rows[name] = RowSet()
            for row in rows:
                self.apply(("insert", name, row))

    # -- updates ---------------------------------------------------------

    def apply(self, command) -> bool:
        """Apply one command; returns whether the relation changed."""
        op, relation, row = command
        rows = self.rows[relation]
        if op == "insert":
            if row in rows:
                return False
            sign = 1
        else:
            if row not in rows:
                return False
            sign = -1
        getattr(self, "_" + relation)(row, sign)
        if sign > 0:
            rows.add(row)
        else:
            rows.remove(row)
        return True

    def _active(self, author: int) -> bool:
        return author in self.hot or bool(self.posted.get(author))

    def _Follows(self, row: Row, sign: int) -> None:
        user, author = row
        counts = self.counts
        counts["Feed"] += sign * len(self.posted.get(author, ()))
        if self._active(author):
            counts["Reach"] += sign
        if author in self.hot:
            self._bump_fan(user, sign)
        if sign > 0:
            self.followers[author].add(user)
            self.followees[user].add(author)
        else:
            self.followers[author].discard(user)
            self.followees[user].discard(author)

    def _Posted(self, row: Row, sign: int) -> None:
        author, post = row
        was = self._active(author)
        fans = len(self.followers.get(author, ()))
        self.counts["Feed"] += sign * fans
        if sign > 0:
            self.posted[author].add(post)
        else:
            self.posted[author].discard(post)
        if was != self._active(author):
            self.counts["Reach"] += sign * fans

    def _Hot(self, row: Row, sign: int) -> None:
        (author,) = row
        was = self._active(author)
        if sign > 0:
            self.hot.add(author)
        else:
            self.hot.discard(author)
        fans = self.followers.get(author, ())
        if was != self._active(author):
            self.counts["Reach"] += sign * len(fans)
        for user in fans:
            self._bump_fan(user, sign)

    def _bump_fan(self, user: int, sign: int) -> None:
        before = self.hot_followees[user]
        self.hot_followees[user] = before + sign
        if before == 0 and sign > 0:
            self.counts["Fans"] += 1
        elif before == 1 and sign < 0:
            self.counts["Fans"] -= 1

    def _R(self, row: Row, sign: int) -> None:
        x, y = row
        if x in self.t:
            self.counts["Star"] += sign * len(self.s_by_xy.get((x, y), ()))
        if sign > 0:
            self.r_by_x[x].add(y)
        else:
            self.r_by_x[x].discard(y)

    def _S(self, row: Row, sign: int) -> None:
        x, y, z = row
        if x in self.t and y in self.r_by_x.get(x, ()):
            self.counts["Star"] += sign
        if sign > 0:
            self.s_by_xy[(x, y)].add(z)
        else:
            self.s_by_xy[(x, y)].discard(z)

    def _T(self, row: Row, sign: int) -> None:
        (x,) = row
        self.counts["Star"] += sign * sum(
            len(self.s_by_xy.get((x, y), ())) for y in self.r_by_x.get(x, ())
        )
        if sign > 0:
            self.t.add(x)
        else:
            self.t.discard(x)

    # -- reads -----------------------------------------------------------

    def count(self, view: str) -> int:
        """The incrementally maintained count."""
        return self.counts[view]

    def contains(self, view: str, row: Row) -> bool:
        rows = self.rows
        if view == "Feed":
            u, a, p = row
            return (u, a) in rows["Follows"] and (a, p) in rows["Posted"]
        if view == "Reach":
            u, a = row
            return (u, a) in rows["Follows"] and self._active(a)
        if view == "Fans":
            (u,) = row
            return any(a in self.hot for a in self.followees.get(u, ()))
        if view == "Star":
            x, y, z = row
            return (x, y) in rows["R"] and x in self.t and row in rows["S"]
        raise KeyError(view)

    def joins(self, view: str, row: Row) -> bool:
        """Whether a Follows row (view Feed) or an S row (view Star)
        joins into at least one result row."""
        if view == "Feed":
            return bool(self.posted.get(row[1]))
        x, y = row[0], row[1]
        return x in self.t and y in self.r_by_x.get(x, ())

    def bound(self, view: str, value: int) -> Set[Row]:
        """The result restricted to the view's first output variable."""
        if view == "Feed":
            return {
                (value, a, p)
                for a in self.followees.get(value, ())
                for p in self.posted.get(a, ())
            }
        if view == "Star":
            if value not in self.t:
                return set()
            return {
                (value, y, z)
                for y in self.r_by_x.get(value, ())
                for z in self.s_by_xy.get((value, y), ())
            }
        raise KeyError(view)

    # -- from-scratch evaluation (hash joins over the base rows) ---------

    def _index(self, relation: str, key: int) -> Dict[int, List[Row]]:
        index: Dict[int, List[Row]] = defaultdict(list)
        for row in self.rows[relation]:
            index[row[key]].append(row)
        return index

    def result(self, view: str) -> Set[Row]:
        """The view evaluated from the base rows alone."""
        rows = self.rows
        if view == "Feed":
            by_author = self._index("Posted", 0)
            return {
                (u, a, p)
                for (u, a) in rows["Follows"]
                for (_, p) in by_author.get(a, ())
            }
        if view == "Reach":
            hot = {a for (a,) in rows["Hot"]}
            with_posts = {a for (a, _) in rows["Posted"]}
            return {(u, a) for (u, a) in rows["Follows"] if a in hot or a in with_posts}
        if view == "Fans":
            hot = {a for (a,) in rows["Hot"]}
            return {(u,) for (u, a) in rows["Follows"] if a in hot}
        if view == "Star":
            r = set(rows["R"])
            t = {x for (x,) in rows["T"]}
            return {(x, y, z) for (x, y, z) in rows["S"] if (x, y) in r and x in t}
        raise KeyError(view)

    def scratch_count(self, view: str) -> int:
        """The view's size from the base rows, without materialising it."""
        if view == "Feed":
            return self.feed_degree_count()
        return len(self.result(view))

    def feed_degree_count(self) -> int:
        """|Feed| by the per-author degree formula
        sum over authors of followers(a) * posts(a), from the base rows."""
        followers: Dict[int, int] = defaultdict(int)
        posts: Dict[int, int] = defaultdict(int)
        for (_, a) in self.rows["Follows"]:
            followers[a] += 1
        for (a, _) in self.rows["Posted"]:
            posts[a] += 1
        return sum(n * posts.get(a, 0) for a, n in followers.items())


class Checks:
    """Collects check outcomes: each failed check fails one operation."""

    def __init__(self) -> None:
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def check_page(
    checks: Checks,
    mirror: Mirror,
    view: str,
    page: List[Row],
    emitted: Set[Row],
    what: str,
) -> bool:
    """Every row of a page is in the current result and was not handed
    out before by the same cursor."""
    fresh = set(page)
    ok = len(fresh) == len(page) and not (fresh & emitted)
    ok = ok and all(mirror.contains(view, row) for row in page)
    emitted |= fresh
    return checks.expect(ok, f"{what}: page of {view} has duplicates or foreign rows")


def check_bound(
    checks: Checks,
    mirror: Mirror,
    view: str,
    value: int,
    page: List[Row],
    size: int,
) -> bool:
    """A bound first page: duplicate-free, inside the bound result, and
    full unless the bound result is smaller than the page."""
    expected = mirror.bound(view, value)
    ok = (
        len(set(page)) == len(page)
        and len(page) == min(size, len(expected))
        and all(row in expected for row in page)
    )
    return checks.expect(ok, f"bound read {view}[{value}] disagrees with the mirror")


def check_walk(
    checks: Checks, mirror: Mirror, view: str, rows: List[Row], expected: Set[Row]
) -> bool:
    """A full cursor walk with no interleaved writes: duplicate-free and
    equal to the result."""
    ok = len(rows) == len(expected) and set(rows) == expected
    return checks.expect(ok, f"cursor walk over {view} differs from the result")


def replay_deltas(start: Set[Row], deltas: Iterable[Tuple[Tuple[Row, ...], Tuple[Row, ...]]]):
    """The result at subscribe time plus every polled delta, in order.
    Returns None if a delta removes an absent row or adds a present one
    (the deltas then do not describe set changes of the result)."""
    current = set(start)
    for added, removed in deltas:
        for row in removed:
            if row not in current:
                return None
            current.remove(row)
        for row in added:
            if row in current:
                return None
            current.add(row)
    return current
