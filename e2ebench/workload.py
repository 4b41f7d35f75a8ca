"""Seeded inputs: workload shapes, initial databases and command streams.

Everything here is plain Python tuples generated from ``random.Random``
seeded by the caller, so one seed always gives the same inputs.  The
program under test only ever receives the generated commands.

Keys are drawn with *bounded* skew: a key comes from a small popular set
(one thirtieth of the domain) with a fixed probability and uniformly from
the whole domain otherwise, so per-key degrees — and with them result and
delta sizes — stay bounded as the database grows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

Row = Tuple[int, ...]
Command = Tuple[str, str, Row]  # (op, relation, row)

#: Views of the social schema.  Feed is q-hierarchical (root ``a``), so
#: binding ``u`` is an *indexed* access pattern; Reach is a union of two
#: q-hierarchical disjuncts; Fans projects the join variable away and is
#: not q-hierarchical, so the planner hands it to delta-IVM.
FEED = "Feed(u, a, p) :- Follows(u, a), Posted(a, p)"
REACH = "Reach(u, a) :- Follows(u, a), Hot(a); Reach(u, a) :- Follows(u, a), Posted(a, p)"
FANS = "Fans(u) :- Follows(u, a), Hot(a)"
#: The star the vectorized kernel was measured on (q-tree root ``x``, so
#: binding ``x`` is a *pinned* access pattern).
STAR = "Star(x, y, z) :- R(x, y), S(x, y, z), T(x)"

ARITIES = {"Follows": 2, "Posted": 2, "Hot": 1, "R": 2, "S": 3, "T": 1}


@dataclass(frozen=True)
class Shape:
    """Sizes and mix of one workload."""

    users: int
    authors: int
    posts: int  # post-id domain
    follows: int  # initial |Follows|
    posted: int  # initial |Posted|
    hot: int  # initial |Hot| (0: relation unused)
    xs: int = 0  # star key domain (0: star unused)
    ys: int = 8
    zs: int = 1000
    r: int = 0
    s: int = 0
    t: int = 0
    #: probability that a key comes from the popular set
    skew: float = 0.1
    #: weights of single writes per relation
    write_mix: Tuple[Tuple[str, float], ...] = ()
    #: commands per batched unit (a round is one uniform and one skewed unit)
    batch_size: int = 256


SOCIAL = Shape(
    users=4000,
    authors=1500,
    posts=30000,
    follows=12000,
    posted=6000,
    hot=150,
    write_mix=(("Follows", 0.45), ("Posted", 0.45), ("Hot", 0.10)),
    batch_size=512,
)

BULK = Shape(
    users=40000,
    authors=60000,
    posts=300000,
    follows=120000,
    posted=60000,
    hot=0,
    xs=5000,
    ys=8,
    zs=1000,
    r=20000,
    s=60000,
    t=2500,
    write_mix=(
        ("Follows", 0.3),
        ("Posted", 0.3),
        ("R", 0.1),
        ("S", 0.2),
        ("T", 0.1),
    ),
    batch_size=20000,
)


class Keys:
    """Bounded-skew key draws for one shape."""

    def __init__(self, shape: Shape, rng: random.Random):
        self.shape = shape
        self.rng = rng

    def _pick(self, domain: int, skewed: bool) -> int:
        share = 0.8 if skewed else self.shape.skew
        if self.rng.random() < share:
            return self.rng.randrange(max(1, domain // 30))
        return self.rng.randrange(domain)

    def row(self, relation: str, skewed: bool = False) -> Row:
        s, rng = self.shape, self.rng
        if relation == "Follows":
            return (rng.randrange(s.users), self._pick(s.authors, skewed))
        if relation == "Posted":
            return (self._pick(s.authors, skewed), rng.randrange(s.posts))
        if relation == "Hot":
            return (self._pick(s.authors, skewed),)
        if relation == "R":
            return (self._pick(s.xs, skewed), rng.randrange(s.ys))
        if relation == "S":
            return (self._pick(s.xs, skewed), rng.randrange(s.ys), rng.randrange(s.zs))
        if relation == "T":
            return (self._pick(s.xs, skewed),)
        raise KeyError(relation)


def initial_database(shape: Shape, seed: int) -> Dict[str, Set[Row]]:
    """The workload's initial relations, exactly at their target sizes."""
    keys = Keys(shape, random.Random(f"initial-{seed}"))
    targets = {
        "Follows": shape.follows,
        "Posted": shape.posted,
        "Hot": shape.hot,
        "R": shape.r,
        "S": shape.s,
        "T": shape.t,
    }
    out: Dict[str, Set[Row]] = {}
    for relation, size in targets.items():
        if not size:
            continue
        rows: Set[Row] = set()
        while len(rows) < size:
            rows.add(keys.row(relation))
        out[relation] = rows
    return out


class Writes:
    """Single-command and batched streams that keep relation sizes
    stationary: a relation above its initial size gets a delete, one
    below it an insert.  Inserts draw fresh random tuples (some already
    present, so no-op inserts occur); a tenth of the deletes target a
    random, almost always absent tuple (a no-op delete).

    ``state`` is the caller's :class:`e2ebench.oracle.Mirror`: deletes
    pick existing rows from it, and every generated command must be
    applied to it before the next one is drawn.
    """

    def __init__(self, shape: Shape, state, seed: int, stream: str):
        self.shape = shape
        self.state = state
        self.rng = random.Random(f"{stream}-{seed}")
        self.keys = Keys(shape, self.rng)
        self.targets = {name: len(state.rows[name]) for name in state.rows}
        mix = [(name, weight) for name, weight in shape.write_mix if name in state.rows]
        self._names = [name for name, _ in mix]
        self._weights = [weight for _, weight in mix]

    def _relation(self) -> str:
        return self.rng.choices(self._names, self._weights)[0]

    def command(self, relation: str = "", skewed: bool = False) -> Command:
        relation = relation or self._relation()
        size = len(self.state.rows[relation])
        if size < self.targets[relation] or (
            size == self.targets[relation] and self.rng.random() < 0.5
        ):
            return ("insert", relation, self.keys.row(relation, skewed))
        if self.rng.random() < 0.1:
            return ("delete", relation, self.keys.row(relation, skewed))
        return ("delete", relation, self.state.rows[relation].choice(self.rng))

    def touching(self, view: str) -> Command:
        """A write whose delta on ``view`` (Feed or Star) is non-empty:
        insert a new tuple that joins, or delete one that does, keeping
        the relation's size stationary."""
        state, rng = self.state, self.rng
        relation = "Follows" if view == "Feed" else "S"
        rows = state.rows[relation]
        for _ in range(1000):
            if len(rows) <= self.targets[relation]:
                if view == "Feed":
                    author = state.rows["Posted"].choice(rng)[0]
                    row = (rng.randrange(self.shape.users), author)
                else:
                    x, y, _ = state.rows["S"].choice(rng)
                    row = (x, y, rng.randrange(self.shape.zs))
                if row not in rows and state.joins(view, row):
                    return ("insert", relation, row)
            else:
                row = rows.choice(rng)
                if state.joins(view, row):
                    return ("delete", relation, row)
        return self.command(relation)

    def batch(self, skewed: bool) -> Tuple[List[Command], List[bool], int]:
        """One churny batched unit: stationary writes, three in ten of
        which undo an earlier command of the same unit (an insert
        deleted again, a delete re-inserted) — the cancelling pairs
        net-effect compression removes.

        Each command is applied to the state as it is drawn.  Returns
        the commands, each one's predicted ``changed`` flag, and the
        number of tuples whose presence differs between the start and
        the end of the unit (what a net-effect batch applies)."""
        out: List[Command] = []
        flags: List[bool] = []
        before: Dict[Tuple[str, Row], bool] = {}
        rows = self.state.rows
        for _ in range(self.shape.batch_size):
            if out and self.rng.random() < 0.3:
                op, relation, row = out[self.rng.randrange(len(out))]
                command = ("delete" if op == "insert" else "insert", relation, row)
            else:
                command = self.command(skewed=skewed)
            key = (command[1], command[2])
            if key not in before:
                before[key] = command[2] in rows[command[1]]
            flags.append(self.state.apply(command))
            out.append(command)
        net = sum(
            1 for (relation, row), was in before.items() if (row in rows[relation]) != was
        )
        return out, flags, net

    def user(self) -> int:
        return self.state.rows["Follows"].choice(self.rng)[0]

    def x(self) -> int:
        return self.state.rows["S"].choice(self.rng)[0]
