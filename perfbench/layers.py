"""Which public calls the traced pass wraps, and the per-layer metrics.

Every workload installs the same instrumentation, so a layer a workload
never reaches reads zero calls there instead of going missing.  The
program's own counters (``sim.*``, ``channel.*``,
``mptcp.scheduler.*``, ``store.cache_*``) come from an ``ObsRecorder``
installed with ``use_recorder`` and from the manifests served jobs
write; the benchmark adds no counter to the program.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from perfbench.spans import Tracer

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS: list[tuple[str, str]] = [
    ("geo.route_s", "s"),
    ("geo.route_calls", "count"),
    ("geo.mobility_s", "s"),
    ("geo.mobility_samples", "count"),
    ("geo.classify_s", "s"),
    ("geo.classify_points", "count"),
    ("fastpath.timeline_s", "s"),
    ("fastpath.timeline_seconds", "count"),
    ("leo.sample_s", "s"),
    ("leo.samples", "count"),
    ("cellular.sample_s", "s"),
    ("cellular.samples", "count"),
    ("fluid.tcp_step_s", "s"),
    ("fluid.tcp_steps", "count"),
    ("campaign.self_s", "s"),
    ("channel.handovers", "count"),
    ("channel.outage_seconds", "s"),
    ("net.run_s", "s"),
    ("net.events_fired", "count"),
    ("net.events_cancelled", "count"),
    ("net.heap_depth_max", "count"),
    ("net.events_per_s", "1/s"),
    ("net.events_useful_ratio", "ratio"),
    ("tcp.acks", "count"),
    ("tcp.ack_s", "s"),
    ("tcp.retx_ratio", "ratio"),
    ("mptcp.pump_calls", "count"),
    ("mptcp.pump_s", "s"),
    ("mptcp.meta_acks", "count"),
    ("mptcp.sched_decisions", "count"),
    ("mptcp.sched_waits", "count"),
    ("mptcp.sched_useful_ratio", "ratio"),
    ("emu.sends", "count"),
    ("emu.queue_drops", "count"),
    ("net.link_sends", "count"),
    ("net.queue_drops", "count"),
    ("udp.sent", "count"),
    ("udp.loss_ratio", "ratio"),
    ("store.shard_appends", "count"),
    ("store.shard_append_s", "s"),
    ("store.shard_finish_s", "s"),
    ("store.cache_put_s", "s"),
    ("store.cache_get_s", "s"),
    ("store.cache_hits", "count"),
    ("store.cache_misses", "count"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.read_shard_s", "s"),
    ("store.bytes_verified", "B"),
    ("store.commit_s", "s"),
    ("store.atomic_writes", "count"),
    ("store.atomic_write_s", "s"),
    ("store.bytes_written", "B"),
    ("dataset.save_json_s", "s"),
    ("dataset.record_to_dict_calls", "count"),
    ("dataset.record_to_dict_s", "s"),
    ("serve.journal_appends", "count"),
    ("serve.journal_append_s", "s"),
    ("serve.job_cold_s", "s"),
    ("serve.job_warm_s", "s"),
    ("serve.overhead_s", "s"),
    ("executor.cpu_util", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls (the modules are imported here)."""
    # Modules that import a wrapped function by name must be loaded
    # before wrap_function scans for them.
    import repro.core.campaign  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.service  # noqa: F401
    import repro.store.artifacts  # noqa: F401
    import repro.store.cache  # noqa: F401
    from repro.core import dataset
    from repro.core.campaign import Campaign
    from repro.core.fastpath.channels import CellularChannelFast, StarlinkChannelFast
    from repro.core.fastpath.fluid import FluidTcpFast
    from repro.core.fastpath.timeline import GeometryTimeline
    from repro.emu.mpshell import TraceLink
    from repro.geo.mobility import VehicleTrace
    from repro.geo.routes import RouteGenerator
    from repro.net.link import Link
    from repro.net.simulator import Simulator
    from repro.serve.journal import JobJournal
    from repro.store import commit, shard
    from repro.store.artifacts import ShardStore
    from repro.store.cache import DriveCache
    from repro.store.shard import ShardWriter
    from repro.tools.tracker import Tracker
    from repro.transport.mptcp.connection import MptcpConnection, Subflow
    from repro.transport.tcp import TcpSender
    from repro.transport.udp import UdpSender

    for method in ("interstate_drive", "local_loop", "ring_road"):
        tracer.wrap_method(RouteGenerator, method, "geo.route")
    tracer.wrap_method(
        VehicleTrace, "__init__", "geo.mobility", lambda a, k, r: len(a[0].samples)
    )
    tracer.wrap_method(
        Tracker, "observe_many", "geo.classify",
        lambda a, k, r: len(_arg(a, k, 1, "samples")),
    )
    tracer.wrap_method(
        GeometryTimeline, "__init__", "fastpath.timeline",
        lambda a, k, r: len(_arg(a, k, 3, "times")),
    )
    tracer.wrap_method(StarlinkChannelFast, "sample", "leo.sample")
    tracer.wrap_method(CellularChannelFast, "sample", "cellular.sample")
    tracer.wrap_method(FluidTcpFast, "step", "fluid.tcp_step")
    tracer.wrap_method(Campaign, "run", "campaign.run")

    tracer.wrap_method(Simulator, "run", "net.run")
    tracer.wrap_method(TcpSender, "on_ack", "tcp.ack")
    tracer.wrap_method(Subflow, "on_ack", "tcp.ack")
    tracer.wrap_method(MptcpConnection, "pump", "mptcp.pump")
    tracer.wrap_method(MptcpConnection, "on_meta_ack", "mptcp.meta_ack")
    tracer.wrap_method(TraceLink, "send", "emu.send")
    tracer.wrap_method(Link, "send", "net.link_send")
    for cls in (TcpSender, TraceLink, Link, UdpSender):
        tracer.collect(cls)

    tracer.wrap_method(ShardWriter, "append", "store.shard_append")
    tracer.wrap_method(ShardWriter, "finish", "store.shard_finish")
    tracer.wrap_method(DriveCache, "put", "store.cache_put")
    tracer.wrap_method(DriveCache, "get", "store.cache_get")
    tracer.wrap_function(
        shard, "read_shard", "store.read_shard",
        lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
    )
    tracer.wrap_method(ShardStore, "commit", "store.commit")
    tracer.wrap_function(
        commit, "atomic_write_bytes", "store.atomic_write",
        lambda a, k, r: len(_arg(a, k, 1, "data")),
    )
    tracer.wrap_function(commit, "atomic_write_json", "store.atomic_write")
    tracer.wrap_method(dataset.DriveDataset, "save_json", "dataset.save_json")
    tracer.wrap_function(dataset, "record_to_dict", "dataset.record_to_dict")
    tracer.wrap_method(JobJournal, "append", "serve.journal_append")


def counter_totals(snapshots: Iterable[list[dict[str, Any]]]) -> dict[str, float]:
    """Sum counters and take the max of gauges across metric snapshots."""
    totals: dict[str, float] = {}
    for snapshot in snapshots:
        for entry in snapshot:
            name, kind = entry.get("name"), entry.get("type")
            if kind == "counter":
                totals[name] = totals.get(name, 0.0) + float(entry["value"])
            elif kind == "gauge":
                totals[name] = max(totals.get(name, 0.0), float(entry["value"]))
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute(
    tracer: Tracer,
    counters: dict[str, float],
    extras: dict[str, float],
) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced pass."""
    spans = tracer.summary()

    def calls(name: str) -> float:
        return float(spans.get(name, {}).get("calls", 0))

    def incl(name: str) -> float:
        return spans.get(name, {}).get("incl_s", 0.0)

    def units(name: str) -> float:
        return spans.get(name, {}).get("units", 0.0)

    senders = tracer.collected("TcpSender")
    segments = sum(s.stats.segments_sent for s in senders)
    retx = sum(s.stats.retransmissions for s in senders)
    udp = tracer.collected("UdpSender")
    udp_sent = sum(s.stats.datagrams_sent for s in udp)
    udp_received = sum(s.stats.datagrams_received for s in udp)
    fired = counters.get("sim.events_fired", 0.0)
    cancelled = counters.get("sim.events_cancelled", 0.0)
    decisions = counters.get("mptcp.scheduler.decisions", 0.0)
    waits = counters.get("mptcp.scheduler.waits", 0.0)
    hits = counters.get("store.cache_hits", 0.0)
    misses = counters.get("store.cache_misses", 0.0)

    values = {
        "geo.route_s": incl("geo.route"),
        "geo.route_calls": calls("geo.route"),
        "geo.mobility_s": incl("geo.mobility"),
        "geo.mobility_samples": units("geo.mobility"),
        "geo.classify_s": incl("geo.classify"),
        "geo.classify_points": units("geo.classify"),
        "fastpath.timeline_s": incl("fastpath.timeline"),
        "fastpath.timeline_seconds": units("fastpath.timeline"),
        "leo.sample_s": incl("leo.sample"),
        "leo.samples": calls("leo.sample"),
        "cellular.sample_s": incl("cellular.sample"),
        "cellular.samples": calls("cellular.sample"),
        "fluid.tcp_step_s": incl("fluid.tcp_step"),
        "fluid.tcp_steps": calls("fluid.tcp_step"),
        "campaign.self_s": spans.get("campaign.run", {}).get("self_s", 0.0),
        "channel.handovers": counters.get("channel.handovers", 0.0),
        "channel.outage_seconds": counters.get("channel.outage_seconds", 0.0),
        "net.run_s": incl("net.run"),
        "net.events_fired": fired,
        "net.events_cancelled": cancelled,
        "net.heap_depth_max": counters.get("sim.heap_depth_max", 0.0),
        "net.events_per_s": _ratio(fired, incl("net.run")),
        "net.events_useful_ratio": _ratio(fired, fired + cancelled),
        "tcp.acks": calls("tcp.ack"),
        "tcp.ack_s": incl("tcp.ack"),
        "tcp.retx_ratio": _ratio(retx, segments),
        "mptcp.pump_calls": calls("mptcp.pump"),
        "mptcp.pump_s": incl("mptcp.pump"),
        "mptcp.meta_acks": calls("mptcp.meta_ack"),
        "mptcp.sched_decisions": decisions,
        "mptcp.sched_waits": waits,
        "mptcp.sched_useful_ratio": _ratio(decisions, decisions + waits),
        "emu.sends": calls("emu.send"),
        "emu.queue_drops": float(sum(l.queue_drops for l in tracer.collected("TraceLink"))),
        "net.link_sends": calls("net.link_send"),
        "net.queue_drops": float(sum(l.queue_drops for l in tracer.collected("Link"))),
        "udp.sent": float(udp_sent),
        "udp.loss_ratio": 1.0 - _ratio(udp_received, udp_sent) if udp_sent else 0.0,
        "store.shard_appends": calls("store.shard_append"),
        "store.shard_append_s": incl("store.shard_append"),
        "store.shard_finish_s": incl("store.shard_finish"),
        "store.cache_put_s": incl("store.cache_put"),
        "store.cache_get_s": incl("store.cache_get"),
        "store.cache_hits": hits,
        "store.cache_misses": misses,
        "store.cache_hit_ratio": _ratio(hits, hits + misses),
        "store.read_shard_s": incl("store.read_shard"),
        "store.bytes_verified": units("store.read_shard"),
        "store.commit_s": incl("store.commit"),
        "store.atomic_writes": calls("store.atomic_write"),
        "store.atomic_write_s": incl("store.atomic_write"),
        "store.bytes_written": units("store.atomic_write"),
        "dataset.save_json_s": incl("dataset.save_json"),
        "dataset.record_to_dict_calls": calls("dataset.record_to_dict"),
        "dataset.record_to_dict_s": incl("dataset.record_to_dict"),
        "serve.journal_appends": calls("serve.journal_append"),
        "serve.journal_append_s": incl("serve.journal_append"),
    }
    values.update(extras)
    missing = [name for name, _ in LAYER_METRICS if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {', '.join(missing)}")
    return {name: float(values[name]) for name, _ in LAYER_METRICS}
