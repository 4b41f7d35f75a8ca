"""End-to-end benchmark of the conjunctive-query serving system.

Run from the repository root::

    python3 e2ebench/run.py --workload server-mixed --seed 1 --seconds 20 --trace 0

Each workload is a closed loop driven by one client thread: the next
operation is sent only after the previous one returned.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  See README.md for the
workloads, the metrics and the checks.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from oracle import Checks, Mirror, check_bound, check_page, check_walk, replay_deltas  # noqa: E402
from workload import BULK, FANS, FEED, REACH, SOCIAL, STAR, Shape, Writes, initial_database  # noqa: E402

PAGE = 100  # tuples per page fetch and per bound first page
WALK_PAGE = 1000  # tuples per fetch in a full enumeration
CURSOR_PAGES = 20  # a long-lived cursor pages this deep, then reopens
WRITES_PER_ROUND = 10
TRACE_BLOCK = 16  # rounds per traced / untraced block in a traced run
#: The measured time is cut into this many cycles, each running the
#: workload's single-command rounds, batched units and full walks for
#: their share of the cycle, so every metric samples the whole run.
CYCLES = 8
#: Single-command rounds per block of the ops_per_s rate: one full
#: lifetime of the long-lived cursor (two pages a round, 20 pages deep).
BLOCK_ROUNDS = CURSOR_PAGES // 2


@dataclass(frozen=True)
class Spec:
    shape: Shape
    views: Tuple[Tuple[str, str, Optional[str]], ...]  # name, text, declared access
    surface: str  # "server" | "cluster" | "session"
    largest: str  # paged and fully enumerated
    subscribed: str  # subscriber and write-visibility view
    bound: Tuple[str, str]  # (view, variable) of the bound reads
    kernel: Tuple[str, str]  # (view, text) for the standalone engine check
    batch_first: bool  # batched phase before the single-command phase
    split: Tuple[float, float, float]  # time shares: single, batched, enumeration


SOCIAL_VIEWS = (("Feed", FEED, "u"), ("Reach", REACH, None), ("Fans", FANS, None))

WORKLOADS: Dict[str, Spec] = {
    "server-mixed": Spec(
        SOCIAL, SOCIAL_VIEWS, "server", "Feed", "Feed", ("Feed", "u"),
        ("Feed", FEED), False, (0.55, 0.25, 0.2),
    ),
    "cluster-rpc": Spec(
        SOCIAL, SOCIAL_VIEWS, "cluster", "Feed", "Feed", ("Feed", "u"),
        ("Feed", FEED), False, (0.55, 0.25, 0.2),
    ),
    "bulk-batch": Spec(
        BULK, (("Feed", FEED, None), ("Star", STAR, None)), "session", "Feed", "Star",
        ("Star", "x"), ("Star", STAR), True, (0.35, 0.45, 0.2),
    ),
}

#: Registration-only view naming every relation of a schema: registered
#: on the empty session and dropped again, it makes the relations known
#: so the initial rows can be stored before the measured views exist.
LOADERS = {
    "server": "Load(u) :- Follows(u, a), Posted(b, p), Hot(h)",
    "session": "Load(u) :- Follows(u, a), Posted(b, p), R(x, y), S(c, d, e), T(t)",
}
LOADERS["cluster"] = LOADERS["server"]


def peak_rss_kb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of this process or of ``pid``, in KiB."""
    if pid is None:
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def build_mirror(shape: Shape, seed: int) -> Tuple[Mirror, float]:
    """The oracle's mirror of the seeded initial database, and the KiB
    its Python objects hold as tracemalloc counts them.  The peak
    resident memory reported is the program's: these KiB are taken off
    every peak reached after the mirror was built."""
    tracemalloc.start()
    try:
        mirror = Mirror(initial_database(shape, seed))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return mirror, held / 1024.0


def block_rate(work: List[Tuple[int, float]], size: int) -> float:
    """Median over consecutive blocks of ``size`` rounds of the work done
    per second inside the program's calls.  A rate over each block is
    total work over total time; the median across blocks keeps one
    block that the host or a full garbage collection stalled from moving
    the figure."""
    rates = []
    for start in range(0, len(work) - size + 1, size):
        block = work[start : start + size]
        rates.append(sum(n for n, _ in block) / sum(t for _, t in block))
    return statistics.median(rates)


def pin_to_one_cpu() -> None:
    """Run this process — and the cluster workers it spawns, which
    inherit the mask — on its first allowed CPU.  On a small virtual
    machine, request/reply hops between processes on different vCPUs
    wait for the host to schedule the sleeping vCPU, which swamps the
    program's own cost with wake-up latency that changes from run to run;
    on one CPU a hop is a local context switch."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Bench:
    """One run of one workload: set-up, the measured cycles, the checks."""

    def __init__(self, name: str, seed: int, seconds: float, tracer=None):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.checks = Checks()
        self.attempted = 0
        self.samples: Dict[str, List[float]] = {
            k: [] for k in ("write", "visible", "count", "page", "bound", "walk_ns")
        }
        self.op_time = 0.0
        self.ops = 0
        self.batch_time = 0.0
        self.batch_commands = 0
        self.batch_buffered = 0
        self.batch_net = 0
        self.reopens = 0
        self.delta_rows = 0
        self.writes = 0
        self.traced = {"ops": 0, "time": 0.0}
        self.untraced = {"ops": 0, "time": 0.0}
        self.registry: Dict[str, dict] = {}
        self.in_single = False
        self.kernel_commands = 0
        self.rounds = 0
        self.subscription = None
        self.window: Dict[str, int] = {}
        #: (operations, seconds) per single-command round and (commands,
        #: seconds) per batched round, for the block rates
        self.round_work: List[Tuple[int, float]] = []
        self.batch_work: List[Tuple[int, float]] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Load the initial database and register the views (spawning and
        adopting the cluster on cluster-rpc).  Returns the set-up time:
        from process start, less the benchmark's own input generation.
        The mirror is built only afterwards, from the same seeded input,
        so neither its memory nor its objects (which every full garbage
        collection during set-up would walk) weigh on the program's."""
        spec = self.spec
        from repro.api.session import Session
        from repro.errors import CursorInvalidatedError
        from repro.storage.database import Database
        from repro.storage.updates import delete, insert

        self.invalidated = CursorInvalidatedError
        self.make = {"insert": insert, "delete": delete}
        imported = perf_counter()

        relations = initial_database(spec.shape, self.seed)
        generated = perf_counter()

        database = Database.from_dict(relations)
        del relations
        session = Session()
        session.view("Load", LOADERS[spec.surface])
        session.drop_view("Load")
        session.ingest(database)
        del database
        for name, text, access in spec.views:
            session.view(name, text, access=access)
        if spec.surface == "server":
            from surfaces import ServerSurface

            self.surface = ServerSurface(session.serve("threads"))
        elif spec.surface == "cluster":
            from surfaces import ClusterSurface

            self.surface = ClusterSurface(
                session.serve("processes", shards=2, supervise=True, codec="json")
            )
        else:
            from surfaces import SessionSurface

            self.surface = SessionSurface(session)
        self.session = session
        done = perf_counter()
        self.setup_peak_kb = peak_rss_kb()
        self.mirror, self.mirror_kb = build_mirror(spec.shape, self.seed)
        self.writes_gen = Writes(spec.shape, self.mirror, self.seed, "single")
        self.batch_gen = Writes(spec.shape, self.mirror, self.seed, "batch")
        return (imported - PROCESS_START) + (done - generated)

    # -- single-command phase ---------------------------------------------

    def _timed(self, kind: str, call, *args):
        if self.tracer is not None and self.tracer.installed:
            index = self.tracer.open("op." + kind)
            started = perf_counter()
            try:
                result = call(*args)
            finally:
                elapsed = perf_counter() - started
                self.tracer.close(index)
        else:
            started = perf_counter()
            result = call(*args)
            elapsed = perf_counter() - started
        if self.in_single:
            self.op_time += elapsed
            self.ops += 1
        self.attempted += 1
        return result, elapsed

    def write_op(self) -> None:
        op, relation, row = command = self.writes_gen.command()
        predicted = self.mirror.apply(command)
        call = self.surface.insert if op == "insert" else self.surface.delete
        changed, elapsed = self._timed("write", call, relation, row)
        self.writes += 1
        self.samples["write"].append(elapsed)
        self.checks.expect(
            changed == predicted, f"{op} {relation}{row} returned changed={changed}"
        )

    def poll_op(self) -> None:
        deltas, _ = self._timed("poll", self.surface.poll, self.subscription)
        self._absorb(deltas)

    def _absorb(self, deltas) -> None:
        for delta in deltas:
            self.deltas.append((delta.added, delta.removed))
            self.delta_rows += len(delta.added) + len(delta.removed)

    def visible_op(self) -> None:
        view = self.spec.subscribed
        op, relation, row = command = self.writes_gen.touching(view)
        expect_delta = self.mirror.joins(view, row)
        predicted = self.mirror.apply(command)
        call = self.surface.insert if op == "insert" else self.surface.delete
        poll = self.surface.poll

        def write_then_poll():
            return call(relation, row), poll(self.subscription)

        (changed, deltas), elapsed = self._timed("visible", write_then_poll)
        self.writes += 1
        self._absorb(deltas)
        seen = bool(deltas) and (
            deltas[-1].command.op,
            deltas[-1].command.relation,
            tuple(deltas[-1].command.row),
        ) == (op, relation, row)
        self.checks.expect(changed == predicted, f"{op} {relation}{row} changed={changed}")
        if predicted and expect_delta:
            if self.checks.expect(seen, f"delta of {op} {relation}{row} not visible at poll"):
                self.samples["visible"].append(elapsed)

    def count_op(self, view: str) -> None:
        count, elapsed = self._timed("count", self.surface.count, view)
        self.samples["count"].append(elapsed)
        self.checks.expect(
            count == self.mirror.count(view),
            f"count({view}) = {count}, mirror says {self.mirror.count(view)}",
        )

    def _open_long_cursor(self) -> None:
        self.cursor = self.surface.open_cursor(self.spec.largest)
        self.cursor_emitted = set()
        self.cursor_pages = 0

    def page_op(self) -> None:
        view = self.spec.largest
        if self.cursor is None:
            self._open_long_cursor()
        try:
            page, elapsed = self._timed("page", self.surface.fetch, self.cursor, PAGE)
        except self.invalidated:
            # An emitted tuple was deleted: correct behaviour; reopen.
            self.reopens += 1
            self.surface.close_cursor(self.cursor)
            self._open_long_cursor()
            page, elapsed = self._timed("page", self.surface.fetch, self.cursor, PAGE)
        self.samples["page"].append(elapsed)
        check_page(self.checks, self.mirror, view, page, self.cursor_emitted, "long-lived cursor")
        self.cursor_pages += 1
        if len(page) < PAGE or self.cursor_pages >= CURSOR_PAGES:
            self.surface.close_cursor(self.cursor)
            self.cursor = None

    def bound_op(self) -> None:
        view, variable = self.spec.bound
        gen = self.writes_gen
        value = gen.user() if variable == "u" else gen.x()
        surface = self.surface

        def first_page():
            handle = surface.open_cursor(view, {variable: value})
            return handle, surface.fetch(handle, PAGE)

        (handle, page), elapsed = self._timed("bound", first_page)
        surface.close_cursor(handle)
        self.samples["bound"].append(elapsed)
        check_bound(self.checks, self.mirror, view, value, page, PAGE)

    def single_round(self) -> None:
        before_ops, before_time = self.ops, self.op_time
        self._single_round()
        self.round_work.append((self.ops - before_ops, self.op_time - before_time))

    def _single_round(self) -> None:
        for _ in range(WRITES_PER_ROUND):
            self.write_op()
        self.poll_op()
        self.visible_op()
        for view, _, _ in self.spec.views:
            self.count_op(view)
        self.page_op()
        self.page_op()
        self.bound_op()

    def start_single(self) -> None:
        """Attach the subscriber and record the result it starts from."""
        view = self.spec.subscribed
        self.subscription = self.surface.subscribe(view)
        self.start_result = self.surface.result_set(view)
        self.deltas: List[tuple] = []
        self.cursor = None

    def single_rounds(self, budget: float) -> None:
        """Whole single-command rounds for ``budget`` seconds.  A traced
        run alternates blocks of rounds with and without the tracer, so
        both see the same stretch of the run."""
        deadline = perf_counter() + budget
        tracer = self.tracer
        self.in_single = True
        first = True
        while first or perf_counter() < deadline:
            first = False
            if tracer is None:
                self.single_round()
            else:
                traced = (self.rounds // TRACE_BLOCK) % 2 == 1
                if traced:
                    tracer.install()
                else:
                    tracer.remove()
                before_ops, before_time = self.ops, self.op_time
                self.single_round()
                side = self.traced if traced else self.untraced
                side["ops"] += self.ops - before_ops
                side["time"] += self.op_time - before_time
            self.rounds += 1
        self.in_single = False
        if tracer is not None:
            tracer.install()

    def finish_single(self) -> None:
        self.poll_op()
        if self.cursor is not None:
            self.surface.close_cursor(self.cursor)
            self.cursor = None

    # -- batched phase -----------------------------------------------------

    def batch_round(self) -> None:
        before_commands, before_time = self.batch_commands, self.batch_time
        self._batch_round()
        self.batch_work.append((self.batch_commands - before_commands, self.batch_time - before_time))

    def _batch_round(self) -> None:
        make = self.make
        for skewed in (False, True):
            commands, flags, net = self.batch_gen.batch(skewed)
            wired = [make[op](relation, row) for op, relation, row in commands]
            result, elapsed = self._timed("batch", self.surface.batch, wired)
            self.batch_time += elapsed
            self.batch_commands += len(commands)
            if isinstance(result, list):
                ok = result == flags
            elif isinstance(result, dict):
                ok = result.get("buffered") == len(commands) and result.get("applied") == net
                self.batch_buffered += result.get("buffered", 0)
                self.batch_net += result.get("net", 0)
            else:
                ok = result == sum(flags)
            self.checks.expect(ok, f"batch of {len(commands)} disagrees with the mirror")
            if self.subscription is not None:
                # Drain the unit's deltas outside the timed operations.
                self._absorb(self.surface.poll(self.subscription))

    def batch_rounds(self, budget: float) -> None:
        deadline = perf_counter() + budget
        first = True
        while first or perf_counter() < deadline:
            first = False
            self.batch_round()

    # -- enumeration -------------------------------------------------------

    def walk(self) -> Tuple[List, List[float]]:
        """A full cursor walk over the largest view: the rows, and the
        fetch time per tuple of each full page."""
        surface = self.surface
        handle = surface.open_cursor(self.spec.largest)
        rows: List = []
        per_tuple: List[float] = []
        while True:
            started = perf_counter()
            page = surface.fetch(handle, WALK_PAGE)
            elapsed = perf_counter() - started
            rows.extend(page)
            if len(page) < WALK_PAGE:
                break
            per_tuple.append(elapsed / WALK_PAGE)
        surface.close_cursor(handle)
        return rows, per_tuple

    def walks(self, budget: float) -> None:
        deadline = perf_counter() + budget
        walks = 0
        view = self.spec.largest
        while walks == 0 or perf_counter() < deadline:
            rows, per_tuple = self.walk()
            self.attempted += 1
            self.samples["walk_ns"].extend(1e9 * t for t in per_tuple)
            ok = len(rows) == self.mirror.count(view) and all(
                self.mirror.contains(view, row) for row in rows
            )
            self.checks.expect(ok, f"walk over {view} differs from the result")
            del rows
            walks += 1

    # -- checks ------------------------------------------------------------

    def _pause_tracing(self) -> bool:
        """Remove the tracer for a check; returns whether it was on."""
        if self.tracer is not None and self.tracer.installed:
            self.tracer.remove()
            return True
        return False

    def checkpoint(self, where: str) -> None:
        """Counts against the incremental mirror, the from-scratch
        evaluation and (Feed) the per-author degree formula."""
        resume = self._pause_tracing()
        try:
            self._count_checks(where)
        finally:
            if resume:
                self.tracer.install()

    def _count_checks(self, where: str) -> None:
        mirror = self.mirror
        for view, _, _ in self.spec.views:
            got = self.surface.count(view)
            self.checks.expect(
                got == mirror.count(view) == mirror.scratch_count(view),
                f"{where}: count({view}) = {got}, mirror {mirror.count(view)}, "
                f"scratch {mirror.scratch_count(view)}",
            )
        if "Feed" in mirror.counts:
            self.checks.expect(
                mirror.feed_degree_count() == mirror.count("Feed"),
                f"{where}: Feed degree formula disagrees with the incremental count",
            )

    def final_checks(self) -> None:
        """Result sets, a duplicate-free walk and the subscription's
        conservation law (run after the memory peak was read)."""
        mirror = self.mirror
        for view, _, _ in self.spec.views:
            self.checks.expect(
                self.surface.result_set(view) == mirror.result(view),
                f"result set of {view} differs from the mirror",
            )
        rows, _ = self.walk()
        check_walk(self.checks, mirror, self.spec.largest, rows, mirror.result(self.spec.largest))
        del rows
        view = self.spec.subscribed
        self._absorb(self.surface.poll(self.subscription))
        replayed = replay_deltas(self.start_result, self.deltas)
        final = self.surface.result_set(view)
        self.checks.expect(
            replayed is not None and replayed == final == mirror.result(view),
            f"subscribe-time result of {view} plus the polled deltas != final result",
        )
        self.engines_check()

    def engines_check(self) -> None:
        """Standalone vectorized and per-tuple engines fed one batched
        stream from the initial database agree with each other and with
        a fresh mirror; times both (core.kernel_ups / core.pertuple_ups)."""
        from repro.interface import make_engine
        from repro.storage.database import Database

        view, text = self.spec.kernel
        if view == "Star":
            shape = replace(self.spec.shape, follows=0, posted=0, hot=0)
        else:
            shape = replace(self.spec.shape, hot=0, r=0, s=0, t=0)
        relations = initial_database(shape, self.seed)
        fresh = Mirror(relations)
        gen = Writes(shape, fresh, self.seed, "kernel")
        units = [gen.batch(skewed)[0] for skewed in (False, True)]
        make = self.make
        rates = {}
        engines = {}
        for backend in ("vectorized", "python"):
            engine = make_engine(
                "qhierarchical", text, Database.from_dict(relations), backend=backend
            )
            spent = 0.0
            total = 0
            if self.tracer is not None:
                self.tracer.install()
            for unit in units:
                wired = [make[op](relation, row) for op, relation, row in unit]
                started = perf_counter()
                engine.apply_all(wired)
                spent += perf_counter() - started
                total += len(wired)
            if self.tracer is not None:
                self.tracer.remove()
            rates[backend] = total / spent
            self.kernel_commands += total
            engines[backend] = engine
        expected = fresh.result(view)
        vec, py = engines["vectorized"].result_set(), engines["python"].result_set()
        self.checks.expect(
            vec == py == expected and engines["python"].count() == fresh.count(view),
            f"standalone engines on {view} disagree after the batched stream",
        )
        self.kernel = rates
        self.kernel_engine = engines["python"]

    # -- registry snapshots ------------------------------------------------

    def _snapshot(self, label: str) -> None:
        self.window[label] = (self.writes, self.ops)
        if self.tracer is None:
            return
        if self.spec.surface == "cluster":
            metrics = self.surface.front.metrics()
            self.registry[label] = {"merged": metrics["merged"], "client": metrics["client"]}
        else:
            snap = self.session.metrics.snapshot()
            self.registry[label] = {"merged": snap, "client": snap}

    # -- one run -----------------------------------------------------------

    def run(self) -> dict:
        spec = self.spec
        if self.tracer is not None:
            self.tracer.install()
        setup_s = self.setup()
        try:
            self.checkpoint("after set-up")
            single, batched, enumeration = (share * self.seconds for share in spec.split)
            if spec.batch_first:
                self.batch_rounds(batched)
                self.checkpoint("after the batched phase")
                batched = 0.0
            self.start_single()
            for cycle in range(CYCLES):
                if cycle == 0:
                    self._snapshot("single_start")
                self.single_rounds(single / CYCLES)
                if cycle == 0:
                    self._snapshot("single_end")
                if batched:
                    self.batch_rounds(batched / CYCLES)
                self.walks(enumeration / CYCLES)
            self.finish_single()
            self.checkpoint("at the end")
            rss_kb = max(self.setup_peak_kb, peak_rss_kb() - self.mirror_kb)
            if spec.surface == "cluster":
                rss_kb += sum(peak_rss_kb(pid) for pid in self.surface.worker_pids())
            if self.tracer is not None:
                self.tracer.remove()
            self.final_checks()
        finally:
            self.surface.close()
        failed = self.checks.failed
        for message in self.checks.messages:
            print("check failed:", message, file=sys.stderr)
        if self.tracer is not None:
            from layers import per_layer

            metrics = per_layer(self)
        else:
            metrics = self.end_to_end(setup_s, rss_kb)
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": metrics,
        }

    def end_to_end(self, setup_s: float, rss_kb: float) -> dict:
        s = self.samples

        def median_us(name: str) -> float:
            return 1e6 * statistics.median(s[name])

        values = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (block_rate(self.round_work, BLOCK_ROUNDS), "1/s"),
            "write_p50_us": (median_us("write"), "us"),
            "visible_p50_us": (median_us("visible"), "us"),
            "count_p50_us": (median_us("count"), "us"),
            "page_p50_us": (median_us("page"), "us"),
            "bound_p50_us": (median_us("bound"), "us"),
            "enum_ns_per_tuple": (statistics.median(s["walk_ns"]), "ns"),
            "batch_ups": (block_rate(self.batch_work, 1), "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    pin_to_one_cpu()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    # Temporary files — the cluster's socket directory among them — stay
    # inside the checkout; relative, so socket paths stay short.
    tempfile.tempdir = os.path.relpath(out)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    bench = Bench(args.workload, args.seed, args.seconds, tracer)
    result = bench.run()
    if tracer is not None:
        stem = f"{args.workload}-seed{args.seed}"
        tracer.dump(out / f"trace-{stem}.json.gz")
        with open(out / f"layers-{stem}.json", "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
        overhead = result["metrics"]["trace.overhead"]["value"]
        print(f"tracing overhead on {args.workload}: traced/untraced ops_per_s = {overhead:.3f}")
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
