"""Per-layer metrics of a traced run.

Each metric names the layer it measures (module of the program) and is
read either from the benchmark's own spans (:mod:`spans`) or from the
program's exported registry (``repro.obs``), as noted.  README.md lists,
for each one, the end-to-end metric it should move and on which workload.
A layer a workload does not drive reports 0: in-process engine spans on
cluster-rpc run inside the workers, and the cluster's RPC instruments do
not exist on the in-process workloads.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, Tuple

from spans import counter_delta, histogram_mean_us

#: name -> unit, in output order
UNITS: Dict[str, str] = {
    "api.plan_ms": "ms",
    "api.session_apply_self_us": "us",
    "api.views_per_write": "count",
    "api.batch_commit_us_per_cmd": "us",
    "api.batch_net_per_buffered": "ratio",
    "api.bound_read_us": "us",
    "core.build_s": "s",
    "core.update_us": "us",
    "core.delta_us": "us",
    "core.count_us": "us",
    "core.enum_ns_per_tuple": "ns",
    "core.kernel_ups": "1/s",
    "core.pertuple_ups": "1/s",
    "core.items": "count",
    "core.kernel_calls_per_batch": "count",
    "ivm.update_us": "us",
    "ucq.update_us": "us",
    "storage.bulk_insert_s": "s",
    "storage.fold_us_per_cmd": "us",
    "server.apply_self_us": "us",
    "server.apply_all_self_us_per_cmd": "us",
    "server.read_self_us": "us",
    "cursors.fetch_self_us": "us",
    "cursors.walked_per_emitted": "ratio",
    "cursors.revalidations": "count",
    "cursors.reopens": "count",
    "subs.poll_us": "us",
    "subs.delta_rows_per_write": "count",
    "cluster.rpc_write_us": "us",
    "cluster.rpc_count_us": "us",
    "cluster.rpc_fetch_us": "us",
    "cluster.worker_write_us": "us",
    "cluster.worker_count_us": "us",
    "cluster.worker_fetch_us": "us",
    "transport.overhead_write_us": "us",
    "transport.overhead_count_us": "us",
    "transport.bytes_per_op": "B",
    "cluster.workers_per_write": "count",
    "cluster.stream_us_per_cmd": "us",
    "cluster.spawn_s": "s",
    "cluster.adopt_s": "s",
    "journal.record_us": "us",
    "trace.overhead": "ratio",
}

#: spans under any benchmark operation of the measured phases
OP = "op."

_WRITE_OPS = ('repro_rpc_seconds{op="insert"', 'repro_rpc_seconds{op="delete"')
_WORKER_WRITES = ('repro_worker_op_seconds{op="insert"', 'repro_worker_op_seconds{op="delete"')


def _per_call_us(summary, names: Tuple[str, ...], self_time: bool = False, **kw) -> float:
    total = sum(summary.total(n, self_time=self_time, **kw) for n in names)
    calls = sum(summary.count(n, **kw) for n in names)
    return 1e6 * total / calls if calls else 0.0


def _enum_ns_per_tuple(engine) -> float:
    """Direct engine enumeration (no cursor, no serving layer)."""
    samples = []
    for _ in range(3):
        started = perf_counter()
        n = 0
        for _row in engine.enumerate():
            n += 1
        samples.append(1e9 * (perf_counter() - started) / max(1, n))
    return statistics.median(samples)


def per_layer(bench) -> Dict[str, dict]:
    tracer = bench.tracer
    s = tracer.summary()
    start = bench.registry.get("single_start", {})
    end = bench.registry.get("single_end", {})
    merged0, merged1 = start.get("merged", {}), end.get("merged", {})
    client0, client1 = start.get("client", {}), end.get("client", {})
    cluster = bench.spec.surface == "cluster"
    # Registry snapshots bracket the first cycle's single-command rounds.
    (writes0, ops0), (writes1, ops1) = bench.window["single_start"], bench.window["single_end"]
    window_writes, window_ops = writes1 - writes0, ops1 - ops0
    writes = bench.writes
    v: Dict[str, float] = {}

    v["api.plan_ms"] = 1e3 * s.mean("api.plan")
    v["api.session_apply_self_us"] = _per_call_us(s, ("api.session_apply",), self_time=True, root=OP)
    v["api.views_per_write"] = (
        counter_delta(merged0, merged1, "repro_engine_updates_total") / window_writes
        if window_writes
        else 0.0
    )
    buffered = bench.batch_buffered
    v["api.batch_commit_us_per_cmd"] = (
        1e6 * s.total("api.batch_commit", root=OP) / buffered if buffered else 0.0
    )
    v["api.batch_net_per_buffered"] = bench.batch_net / buffered if buffered else 0.0
    v["api.bound_read_us"] = 1e6 * s.under_roots("op.bound", ("api.cursor_open", "cursors.fetch"))

    v["core.build_s"] = s.total("core.build", self_time=True)
    if cluster:
        v["core.update_us"] = histogram_mean_us(
            merged0, merged1, ('repro_view_update_seconds{engine="qhierarchical"',)
        )
        v["core.delta_us"] = v["core.update_us"]
        v["ivm.update_us"] = histogram_mean_us(
            merged0, merged1, ('repro_view_update_seconds{engine="delta_ivm"',)
        )
        v["ucq.update_us"] = histogram_mean_us(
            merged0, merged1, ('repro_view_update_seconds{engine="ucq_union"',)
        )
    else:
        v["core.update_us"] = _per_call_us(s, ("core.update", "core.delta"), top_level=True, root=OP)
        v["core.delta_us"] = _per_call_us(s, ("core.delta",), top_level=True, root=OP)
        v["ivm.update_us"] = _per_call_us(s, ("ivm.update", "ivm.delta"), top_level=True, root=OP)
        v["ucq.update_us"] = _per_call_us(s, ("ucq.update", "ucq.delta"), top_level=True, root=OP)
    v["core.count_us"] = _per_call_us(s, ("core.count",), top_level=True, root=OP)
    v["core.enum_ns_per_tuple"] = _enum_ns_per_tuple(bench.kernel_engine)
    batches = s.count("op.batch")
    v["core.kernel_calls_per_batch"] = (
        s.count("core.kernel", root="op.batch") / batches if batches else 0.0
    )
    v["core.kernel_ups"] = bench.kernel["vectorized"]
    v["core.pertuple_ups"] = bench.kernel["python"]
    if cluster:
        v["core.items"] = float(bench.kernel_engine.item_count())
    else:
        v["core.items"] = float(
            sum(
                view.engine.item_count()
                for view in bench.session.views
                if hasattr(view.engine, "item_count")
            )
        )

    v["storage.bulk_insert_s"] = s.total("storage.bulk_insert")
    folded = bench.kernel_commands
    v["storage.fold_us_per_cmd"] = 1e6 * s.total("storage.fold_stream") / folded if folded else 0.0

    v["server.apply_self_us"] = _per_call_us(s, ("server.apply",), self_time=True, root=OP)
    server_cmds = bench.batch_commands if bench.spec.surface == "server" else 0
    v["server.apply_all_self_us_per_cmd"] = (
        1e6 * s.total("server.apply_all", self_time=True, root=OP) / server_cmds if server_cmds else 0.0
    )
    v["server.read_self_us"] = _per_call_us(s, ("server.count",), self_time=True, root=OP)
    v["cursors.fetch_self_us"] = _per_call_us(s, ("cursors.fetch",), self_time=True, root="op.page")
    v["cursors.walked_per_emitted"] = tracer.walked / tracer.emitted if tracer.emitted else 0.0
    v["cursors.revalidations"] = counter_delta(
        merged0, merged1, "repro_cursor_revalidations_total"
    )
    v["cursors.reopens"] = float(bench.reopens)
    v["subs.poll_us"] = _per_call_us(s, ("subs.poll",), root=OP)
    v["subs.delta_rows_per_write"] = bench.delta_rows / writes if writes else 0.0

    rpc_write = histogram_mean_us(client0, client1, _WRITE_OPS)
    rpc_count = histogram_mean_us(client0, client1, ('repro_rpc_seconds{op="count"',))
    rpc_fetch = histogram_mean_us(client0, client1, ('repro_rpc_seconds{op="fetch"',))
    worker_write = histogram_mean_us(merged0, merged1, _WORKER_WRITES)
    worker_count = histogram_mean_us(merged0, merged1, ('repro_worker_op_seconds{op="count"',))
    worker_fetch = histogram_mean_us(merged0, merged1, ('repro_worker_op_seconds{op="fetch"',))
    v["cluster.rpc_write_us"] = rpc_write
    v["cluster.rpc_count_us"] = rpc_count
    v["cluster.rpc_fetch_us"] = rpc_fetch
    v["cluster.worker_write_us"] = worker_write
    v["cluster.worker_count_us"] = worker_count
    v["cluster.worker_fetch_us"] = worker_fetch
    v["transport.overhead_write_us"] = rpc_write - worker_write if cluster else 0.0
    v["transport.overhead_count_us"] = rpc_count - worker_count if cluster else 0.0
    moved = counter_delta(client0, client1, "repro_rpc_bytes_")
    v["transport.bytes_per_op"] = moved / window_ops if window_ops else 0.0
    write_rpcs = 0
    for prefix in _WRITE_OPS:
        for key, state in client1.get("histograms", {}).items():
            if key.startswith(prefix):
                prior = client0.get("histograms", {}).get(key, {"count": 0})
                write_rpcs += state["count"] - prior["count"]
    v["cluster.workers_per_write"] = (
        write_rpcs / window_writes if (window_writes and cluster) else 0.0
    )
    streamed = bench.batch_commands if cluster else 0
    v["cluster.stream_us_per_cmd"] = (
        1e6 * s.total("cluster.apply_stream", root=OP) / streamed if streamed else 0.0
    )
    v["cluster.spawn_s"] = s.total("cluster.spawn")
    v["cluster.adopt_s"] = s.total("cluster.adopt")
    v["journal.record_us"] = _per_call_us(s, ("journal.record",), root=OP)

    traced, untraced = bench.traced, bench.untraced
    if traced["time"] and untraced["time"] and untraced["ops"]:
        v["trace.overhead"] = (traced["ops"] / traced["time"]) / (
            untraced["ops"] / untraced["time"]
        )
    else:
        v["trace.overhead"] = 0.0
    return {name: {"value": float(v[name]), "unit": unit} for name, unit in UNITS.items()}
