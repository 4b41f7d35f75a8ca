"""The benchmark's checks catch wrong results.

Run from the repository root::

    python3 -m pytest e2ebench/test_checks.py -q

Each test feeds a check a corrupted result (or runs a short workload
against a program whose reads were corrupted on purpose) and asserts
that the check fails, next to the uncorrupted control that passes.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import Checks, Mirror, check_bound, check_page, check_walk, replay_deltas  # noqa: E402
from workload import SOCIAL, Writes, initial_database  # noqa: E402

SMALL = replace(
    SOCIAL, users=60, authors=40, posts=200, follows=150, posted=80, hot=6,
    xs=30, r=40, s=90, t=12, batch_size=400,
    write_mix=(("Follows", 0.3), ("Posted", 0.3), ("Hot", 0.1),
               ("R", 0.1), ("S", 0.1), ("T", 0.1)),
)


def small_mirror(seed: int = 3) -> Mirror:
    return Mirror(initial_database(SMALL, seed))


def test_incremental_counts_match_scratch_evaluation_under_churn():
    mirror = small_mirror()
    gen = Writes(SMALL, mirror, 3, "test")
    for _ in range(3000):
        mirror.apply(gen.command())
    for view in ("Feed", "Reach", "Fans", "Star"):
        assert mirror.count(view) == len(mirror.result(view)), view
    assert mirror.feed_degree_count() == mirror.count("Feed")


def test_page_check_catches_foreign_and_repeated_rows():
    mirror = small_mirror()
    rows = sorted(mirror.result("Feed"))
    checks, emitted = Checks(), set()
    assert check_page(checks, mirror, "Feed", rows[:5], emitted, "control")
    assert not check_page(checks, mirror, "Feed", rows[4:6], emitted, "repeat")
    foreign = (10**6, rows[0][1], rows[0][2])
    assert not check_page(checks, mirror, "Feed", [foreign], set(), "foreign")
    assert checks.failed == 2


def test_bound_check_catches_missing_extra_and_short_pages():
    mirror = small_mirror()
    user = next(u for (u, a) in mirror.rows["Follows"] if len(mirror.bound("Feed", u)) > 2)
    expected = sorted(mirror.bound("Feed", user))
    checks = Checks()
    assert check_bound(checks, mirror, "Feed", user, expected, 100)
    assert not check_bound(checks, mirror, "Feed", user, expected[:-1], 100)
    assert not check_bound(checks, mirror, "Feed", user, expected + [(user, -1, -1)], 100)
    assert not check_bound(checks, mirror, "Feed", user, expected[:1] * 2, 2)
    assert checks.failed == 3


def test_walk_check_catches_duplicates_and_missing_rows():
    mirror = small_mirror()
    rows = sorted(mirror.result("Star"))
    assert len(rows) > 2
    expected = mirror.result("Star")
    checks = Checks()
    assert check_walk(checks, mirror, "Star", rows, expected)
    duplicated = rows[:-1] + rows[:1]  # same length, one row twice, one missing
    assert not check_walk(checks, mirror, "Star", duplicated, expected)
    assert not check_walk(checks, mirror, "Star", rows[1:], expected)
    assert checks.failed == 2


def test_conservation_catches_a_lost_or_wrong_delta():
    start = {(1,), (2,)}
    deltas = [(((3,),), ()), ((), ((1,),))]
    assert replay_deltas(start, deltas) == {(2,), (3,)}
    assert replay_deltas(start, deltas[:1]) != {(2,), (3,)}  # a lost delta
    assert replay_deltas(start, [((), ((9,),))]) is None  # removes an absent row
    assert replay_deltas(start, [(((2,),), ())]) is None  # adds a present row


def test_batch_prediction_matches_set_semantics():
    mirror = small_mirror()
    before = {name: set(rows) for name, rows in mirror.rows.items()}
    gen = Writes(SMALL, mirror, 5, "b")
    commands, flags, net = gen.batch(skewed=True)
    replay = {name: set(rows) for name, rows in before.items()}
    for (op, relation, row), flag in zip(commands, flags):
        rows = replay[relation]
        changed = (row not in rows) if op == "insert" else (row in rows)
        (rows.add if op == "insert" else rows.discard)(row)
        assert changed == flag
    moved = sum(len(replay[name] ^ before[name]) for name in replay)
    assert moved == net


def test_a_corrupted_program_read_fails_the_workload():
    """End to end: a Server whose count() is off by one on one view makes
    the short server-mixed run report failed operations."""
    import run
    from repro.serve.server import Server

    original = Server.count

    def corrupted(self, view):
        value = original(self, view)
        return value + 1 if view == "Fans" else value

    Server.count = corrupted
    try:
        bench = run.Bench("server-mixed", seed=7, seconds=0.3)
        result = bench.run()
    finally:
        Server.count = original
    assert result["failed"] > 0
    assert result["correct"] is False
    assert all("Fans" in m for m in bench.checks.messages)
