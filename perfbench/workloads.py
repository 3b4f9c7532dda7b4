"""The four closed-loop workloads: seeded inputs, timed operations, checks.

Each workload turns ``--seed`` into inputs during set-up, then runs
*passes*: one fixed, seeded list of operations, issued one at a time
from this process (a closed loop with a single client).  A pass times
only the operations; its output checks run afterwards, outside the
timed region.  Every pass of one seed does identical work, so its
output digest and the exact counts of a traced pass repeat.

``work`` is the pass's unit of work (see ``README.md``): drive tests for
the campaign and the served jobs, simulated megabits delivered for the
two packet-level workloads.  Operations are timed in wall seconds and in
reference seconds (``measure.ReferenceClock``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from perfbench import OUT_DIR
from perfbench.checks import (
    RecordScheduleCheck,
    capacity_bound_bytes,
    check_delivery,
    check_identical_files,
    check_job_states,
    check_ratio,
    check_series,
    check_shards,
    looped_trace_bound_bytes,
)
from perfbench.measure import Digest, ReferenceClock, children_cpu_s
from perfbench.spans import Tracer


@dataclass
class PassResult:
    """What one pass did, as measured and as checked."""

    wall_s: float = 0.0
    #: The timed operations in reference seconds.
    ref_s: float = 0.0
    work: float = 0.0
    ops: int = 0
    failed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    #: Per-layer values only a pass can measure (job times, CPU use).
    extras: dict[str, float] = field(default_factory=dict)
    #: Metric snapshots the program wrote itself (served job manifests).
    snapshots: list[list[dict[str, Any]]] = field(default_factory=list)

    @property
    def rate(self) -> float:
        """Work per reference second."""
        return self.work / self.ref_s


@contextmanager
def _checking(tracer: Tracer | None) -> Iterator[None]:
    """Output checks call the program too; keep those calls out of the trace."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


class Workload:
    name = ""
    why = ""

    def __init__(self) -> None:
        #: Facts about the generated inputs worth printing with the result.
        self.notes: list[str] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError

    def reference_pass(self) -> PassResult | None:
        """An untraced pass run exactly like the traced one, when the
        timed passes run differently (served jobs); ``None`` otherwise."""
        return None

    def close(self) -> None:
        pass


# -- fluid campaign ----------------------------------------------------------


def campaign_checker(config) -> RecordScheduleCheck:
    from repro.core.campaign import TEST_ID_STRIDE
    from repro.core.dataset import NETWORKS

    return RecordScheduleCheck(
        networks=NETWORKS,
        cycle=[(k.protocol, k.direction, k.parallel) for k in config.cycle],
        test_duration_s=config.test_duration_s,
        window_period_s=config.window_period_s,
        stride=TEST_ID_STRIDE,
    )


def _record_fields(rec) -> dict[str, Any]:
    """``record_to_dict(rec)`` without the deep copies that double the
    cost of checking a paper-scale dataset."""
    raw = {key: value for key, value in vars(rec).items() if key != "samples"}
    raw["samples"] = [{**vars(s), "area": s.area.value} for s in rec.samples]
    return raw


class CampaignPaper(Workload):
    name = "campaign_paper"
    why = (
        "the paper's 17-drive fluid campaign, serial and in memory: geo, "
        "geometry timeline, channel sampling and fluid TCP; no DES, store or service"
    )

    def setup(self, seed: int) -> None:
        from repro.experiments.common import config_for_scale

        self.config = config_for_scale("paper", seed)

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        from repro.core.campaign import Campaign

        result = PassResult(ops=1)
        campaign = None

        def op():
            nonlocal campaign
            campaign = Campaign(self.config)
            return campaign.run()

        dataset, result.wall_s, result.ref_s = ReferenceClock().time(op)
        result.work = dataset.num_tests
        with _checking(tracer):
            if campaign.report.drives_failed:
                result.problems.append(f"{campaign.report.drives_failed} drives failed")
            check = campaign_checker(self.config)
            digest = Digest()
            digest.add(
                [dataset.trace_minutes, dataset.distance_km,
                 sorted((a.value, s) for a, s in dataset.area_proportions.items())]
            )
            for rec in dataset.records:
                raw = _record_fields(rec)
                check.add(raw)
                digest.add(raw)
            result.problems += check.result()
            result.digest = digest.hexdigest()
        result.failed = 1 if result.problems else 0
        return result


# -- packet-level workloads ----------------------------------------------------

#: Trace stretch searched for replay windows (seconds after the urban exit).
SEARCH_S = 120


def select_windows(
    traces: dict[str, list], groups: list[tuple[str, ...]], length_s: int
) -> list[dict[str, list]]:
    """One ``length_s`` window per group of networks, in order, without overlap.

    A window qualifies when every network in its group has capacity in
    both directions for at least half of its seconds: a replay window
    with no delivery opportunity cannot run, and one that is mostly
    outage measures timers rather than transfer.  Deterministic in the
    traces, hence in the seed.
    """
    total = min(len(samples) for samples in traces.values())
    windows = []
    start = 0
    for group in groups:
        while True:
            if start + length_s > total:
                raise ValueError(f"no usable {length_s}s window for {'+'.join(group)}")
            ok = all(
                sum(
                    1
                    for s in traces[n][start : start + length_s]
                    if s.downlink_mbps > 0 and s.uplink_mbps > 0
                )
                * 2
                >= length_s
                for n in group
            )
            if ok:
                break
            start += 1
        windows.append({n: traces[n][start : start + length_s] for n in group})
        start += length_s
    return windows


@dataclass
class ReplayRun:
    """One packet-level test: how to run it and what bounds its output."""

    label: str
    run: Callable[[], Any]
    bound_bytes: float
    duration_s: float


class _PacketWorkload(Workload):
    #: Simulated seconds per replay window.
    window_s = 5

    def _runs(self, seed: int) -> list[ReplayRun]:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        self.runs = self._runs(seed)

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        result = PassResult()
        digest = Digest()
        clock = ReferenceClock()
        for index, spec in enumerate(self.runs):
            if tracer is not None:
                tracer.op_id = index
            result.ops += 1
            try:
                out, seconds, ref_seconds = clock.time(spec.run)
            except Exception as exc:  # a failed operation is counted, not fatal
                result.failed += 1
                result.problems.append(f"{spec.label}: {type(exc).__name__}: {exc}")
                continue
            result.wall_s += seconds
            result.ref_s += ref_seconds
            with _checking(tracer):
                problems = check_delivery(spec.label, out.bytes_received, spec.bound_bytes)
                problems += check_series(
                    spec.label, out.series_mbps, int(round(spec.duration_s))
                )
                problems += check_ratio(
                    f"{spec.label} retransmission rate", out.retransmission_rate
                )
                if hasattr(out, "udp_loss_rate"):
                    problems += check_ratio(f"{spec.label} UDP loss", out.udp_loss_rate)
                digest.add([spec.label, out.bytes_received, out.series_mbps,
                            out.retransmission_rate])
            if problems:
                result.failed += 1
                result.problems += problems
            else:
                result.work += out.bytes_received * 8e-6
        result.digest = digest.hexdigest()
        return result


def _capacities(samples: list, downlink: bool) -> list[float]:
    return [s.capacity_mbps(downlink) for s in samples]


class MptcpReplay(_PacketWorkload):
    name = "mptcp_replay"
    why = (
        "fig10/fig11 shape: BLEST MPTCP over MpShell with tuned and untuned meta "
        "buffers beside single-path baselines; DES kernel, TCP, MPTCP and emu"
    )
    segment_bytes = 6000

    def _runs(self, seed: int) -> list[ReplayRun]:
        from repro.emu.traces import conditions_to_opportunities_ms
        from repro.experiments.common import collect_conditions
        from repro.experiments.fig10_mptcp_box import (
            TUNED_BUFFER_BYTES,
            UNTUNED_BUFFER_BYTES,
        )
        from repro.tools.iperf import run_mptcp_test, run_single_path_over_mpshell

        traces = collect_conditions(duration_s=SEARCH_S, seed=seed)
        combos = [("MOB", "ATT"), ("MOB", "VZ")]
        windows = select_windows(traces, combos, self.window_s)
        seg, dur = self.segment_bytes, float(self.window_s)
        runs = []
        for combo, window in zip(combos, windows):
            tag = "+".join(combo)
            bounds = {}
            for n in combo:
                opportunities = conditions_to_opportunities_ms(window[n], True, seg)
                bounds[n] = looped_trace_bound_bytes(opportunities, dur, seg)
                period_s = opportunities[-1] / 1000.0
                if period_s < dur - 1.0:
                    integral = capacity_bound_bytes(_capacities(window[n], True), seg)
                    self.notes.append(
                        f"{tag} {n}: the window ends in outage, so MpShell loops its "
                        f"trace every {period_s:.3f}s and offers "
                        f"{bounds[n] / integral - 1:+.1%} against the window's "
                        "capacity integral"
                    )
            for label, buffer_bytes in (("tuned", TUNED_BUFFER_BYTES),
                                        ("untuned", UNTUNED_BUFFER_BYTES)):
                runs.append(ReplayRun(
                    f"{tag} {label}",
                    lambda w=window, b=buffer_bytes: run_mptcp_test(
                        w, duration_s=dur, buffer_segments=max(2, b // seg),
                        segment_bytes=seg, seed=seed,
                    ),
                    sum(bounds.values()), dur,
                ))
            for n in combo:
                runs.append(ReplayRun(
                    f"{tag} single {n}",
                    lambda n=n, w=window: run_single_path_over_mpshell(
                        n, w[n], duration_s=dur, segment_bytes=seg, seed=seed,
                    ),
                    bounds[n], dur,
                ))
        return runs


class IperfPaths(_PacketWorkload):
    name = "iperf_paths"
    why = (
        "fig5/fig7 shape: iPerf TCP (1 and 4 flows) and UDP over Path.from_conditions; "
        "DES kernel, net.link, TCP and UDP with per-packet cost dominant"
    )
    #: (protocol, flows, downlink, segment bytes) per network.
    tests = [
        ("tcp", 1, True, 6000),
        ("tcp", 4, True, 6000),
        ("tcp", 1, False, 1500),
        ("tcp", 4, False, 1500),
        ("udp", 1, True, 6000),
        ("udp", 1, False, 1500),
    ]

    def _runs(self, seed: int) -> list[ReplayRun]:
        from repro.experiments.common import collect_conditions
        from repro.tools.iperf import run_tcp_test, run_udp_test

        traces = collect_conditions(duration_s=SEARCH_S, seed=seed)
        networks = [("MOB",), ("VZ",)]
        windows = select_windows(traces, networks, self.window_s)
        dur = float(self.window_s)
        runs = []
        for (network,), window in zip(networks, windows):
            samples = window[network]
            for protocol, flows, downlink, seg in self.tests:
                label = f"{network} {protocol} x{flows} {'dl' if downlink else 'ul'} {seg}B"
                if protocol == "tcp":
                    fn = lambda s=samples, p=flows, d=downlink, g=seg: run_tcp_test(
                        s, duration_s=dur, parallel=p, downlink=d, segment_bytes=g,
                        seed=seed,
                    )
                else:
                    fn = lambda s=samples, d=downlink, g=seg: run_udp_test(
                        s, duration_s=dur, downlink=d, segment_bytes=g, seed=seed,
                    )
                bound = capacity_bound_bytes(_capacities(samples, downlink), seg)
                runs.append(ReplayRun(label, fn, bound, dur))
        return runs


# -- served jobs -------------------------------------------------------------


class ServedJobs(Workload):
    name = "served_jobs"
    why = (
        "a cold job that computes, streams shards and commits, then a warm job "
        "served from verified DriveCache reads; store, serve and dataset I/O"
    )
    #: Drives per job (``small`` preset).
    drives = 2
    #: Worker processes of the cold job in timed passes.
    cold_workers = 2

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        self._roots = 0
        self._ready = self._start_service("fork")

    def _start_service(self, isolation: str):
        from repro.serve import CampaignService, ServiceConfig

        root = os.path.join(self.work_dir, f"root-{self._roots}")
        self._roots += 1
        service = CampaignService(ServiceConfig(root=root, isolation=isolation))
        service.start()
        return service

    def _specs(self, inline: bool) -> tuple[dict, dict]:
        base = {"preset": "small", "drives": self.drives, "seed": self.seed}
        # Same sim keys, different execution keys: a distinct job id, so
        # the warm job is not deduplicated into the cold one.
        if inline:
            return dict(base), {**base, "workers": 1}
        return {**base, "workers": self.cold_workers}, {**base, "workers": 1}

    def run_pass(self, tracer: Tracer | None = None, inline: bool | None = None) -> PassResult:
        inline = tracer is not None if inline is None else inline
        if inline:
            service = self._start_service("inline")
        else:
            service = self._ready or self._start_service("fork")
            self._ready = None
        cold_spec, warm_spec = self._specs(inline)
        result = PassResult(ops=2)
        states: dict[str, str] = {}
        job_ids: dict[str, str] = {}
        clock = ReferenceClock()
        try:
            for label, spec in (("cold", cold_spec), ("warm", warm_spec)):
                if tracer is not None:
                    tracer.op_id = len(job_ids)
                cpu_before = children_cpu_s()

                def op(spec=spec):
                    job_id = service.submit(spec)
                    service.run_until_drained()
                    return job_id

                job_ids[label], seconds, ref_seconds = clock.time(op)
                result.wall_s += seconds
                result.ref_s += ref_seconds
                result.extras[f"serve.job_{label}_s"] = seconds
                states[label] = service.jobs[job_ids[label]].state.value
                if label == "cold" and not inline:
                    result.extras["executor.cpu_util"] = (children_cpu_s() - cpu_before) / (
                        seconds * self.cold_workers
                    )
            with _checking(tracer):
                self._check(service, job_ids, states, result)
        finally:
            service.close()
            shutil.rmtree(service.root, ignore_errors=True)
        return result

    def _check(self, service, job_ids, states, result: PassResult) -> None:
        from repro.core.campaign import CampaignConfig
        from repro.store import verify_shard

        result.problems += check_job_states(states)
        result.failed = sum(1 for s in states.values() if s != "done")
        if result.failed:
            return
        job_dirs = {label: os.path.join(service.root, "jobs", jid) for label, jid in job_ids.items()}
        cold_path = os.path.join(job_dirs["cold"], "dataset.json")
        result.problems += check_identical_files(
            cold_path, os.path.join(job_dirs["warm"], "dataset.json")
        )
        shards = sorted(
            glob.glob(os.path.join(service.root, "jobs", "*", "store", "*.jsonl"))
            + glob.glob(os.path.join(service.root, "cache", "*", "*.jsonl"))
        )
        result.problems += check_shards(shards, verify_shard)
        with open(cold_path, "rb") as handle:
            blob = handle.read()
        digest = Digest()
        digest.add_bytes(blob)
        result.digest = digest.hexdigest()
        records = json.loads(blob)["records"]
        check = campaign_checker(CampaignConfig.small(seed=self.seed, drives=self.drives))
        for raw in records:
            check.add(raw)
        result.problems += check.result()
        result.work = 2 * len(records)
        for label in ("cold", "warm"):
            with open(os.path.join(job_dirs[label], "manifest.json"), encoding="utf-8") as handle:
                result.snapshots.append(json.load(handle).get("metrics", []))
        if result.problems and not result.failed:
            result.failed = 1

    def reference_pass(self) -> PassResult:
        return self.run_pass(inline=True)

    def close(self) -> None:
        if self._ready is not None:
            self._ready.close()
            self._ready = None
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CampaignPaper, MptcpReplay, IperfPaths, ServedJobs)
}
