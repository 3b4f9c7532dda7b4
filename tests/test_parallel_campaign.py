"""Parallel drive-sharded campaign execution.

The contract under test: a campaign run with any ``workers`` count
produces **byte-identical** artifacts to a serial run — dataset JSON,
checkpoint JSON, campaign report, and the deterministic view of the run
manifest — while failures stay isolated, obs metrics merge in drive
order, and a run killed mid-flight resumes (at any worker count) without
re-executing checkpointed drives.

The golden equivalence test honours ``REPRO_EQUIV_WORKERS`` (default 4)
so CI can bound runtime by running it at 2 workers.
"""

import json
import os
import pickle

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.faults import FaultInjector, generate_schedule
from repro.obs import (
    MetricsRegistry,
    NULL_RECORDER,
    ObsRecorder,
    merge_snapshots,
)
from repro.resilience import ResilienceConfig, RetryPolicy

#: Worker count for the golden equivalence test (CI pins this to 2).
EQUIV_WORKERS = int(os.environ.get("REPRO_EQUIV_WORKERS", "4"))


def _grid_config(seed=7, drives=3, workers=1, faults=False, **overrides):
    base = dict(
        seed=seed,
        num_interstate_drives=drives,
        num_city_drives=0,
        max_drive_seconds=240.0,
        test_duration_s=30.0,
        window_period_s=40.0,
        workers=workers,
    )
    base.update(overrides)
    config = CampaignConfig(**base)
    if faults:
        config.fault_schedule = generate_schedule(
            seed=seed, num_drives=drives, drive_duration_s=240.0, intensity=3.0
        )
    return config


# -- config surface ------------------------------------------------------


def test_workers_validated():
    with pytest.raises(ValueError):
        CampaignConfig(workers=0)
    with pytest.raises(ValueError):
        CampaignConfig(workers=-2)


def test_workers_excluded_from_fingerprint():
    """Serial checkpoints must resume under any worker count."""
    assert (
        _grid_config(workers=1).fingerprint()
        == _grid_config(workers=8).fingerprint()
    )


# -- the keystone: serial-vs-parallel golden equivalence -----------------


def test_parallel_run_byte_identical_to_serial(tmp_path):
    """``CampaignConfig.small``-style drives at workers=1 vs workers=N:
    checkpoint JSON, dataset JSON, report, and deterministic manifest
    agree byte for byte."""
    artifacts = {}
    for label, workers in (("serial", 1), ("parallel", EQUIV_WORKERS)):
        recorder = ObsRecorder()
        campaign = Campaign(
            _grid_config(workers=workers, faults=True), recorder=recorder
        )
        ckpt = tmp_path / f"{label}.ckpt.json"
        dataset = campaign.run(checkpoint_path=ckpt)
        data = tmp_path / f"{label}.dataset.json"
        dataset.save_json(data)
        report = campaign.report.to_dict()
        assert report.pop("checkpoint_path") == os.fspath(ckpt)
        artifacts[label] = {
            "ckpt": ckpt.read_bytes(),
            "dataset": data.read_bytes(),
            "report": report,
            "manifest": campaign.manifest.deterministic_blob(),
            "num_tests": dataset.num_tests,
        }

    serial, parallel = artifacts["serial"], artifacts["parallel"]
    assert serial["num_tests"] > 0
    assert serial["ckpt"] == parallel["ckpt"]
    assert serial["dataset"] == parallel["dataset"]
    assert serial["report"] == parallel["report"]
    assert serial["manifest"] == parallel["manifest"]


def test_parallel_merges_obs_and_fault_accounting():
    """Worker metric snapshots and injector accounting land in the parent
    exactly as a serial run accumulates them (counters are integer-valued,
    so drive-order merge is float-exact)."""
    serial_rec, parallel_rec = ObsRecorder(), ObsRecorder()
    serial = Campaign(_grid_config(faults=True), recorder=serial_rec)
    serial.run()
    parallel = Campaign(
        _grid_config(workers=2, faults=True), recorder=parallel_rec
    )
    parallel.run()

    assert serial.report.fault_seconds == parallel.report.fault_seconds
    assert (
        serial.report.fault_outage_seconds
        == parallel.report.fault_outage_seconds
    )

    def deterministic(registry):
        from repro.obs import WALL_CLOCK_METRICS

        return [
            m
            for m in registry.snapshot()
            if m["name"] not in WALL_CLOCK_METRICS
        ]

    assert deterministic(serial_rec.registry) == deterministic(
        parallel_rec.registry
    )
    # The parallel run still traces per-drive spans (worker-measured).
    assert len(parallel_rec.tracer.by_name("campaign.drive")) == 3


def test_parallel_drive_failure_isolated():
    """One drive raising mid-way in a worker becomes a DriveFailure; the
    other drives' data survives, numbered identically to a serial run,
    and the failed drive's partial metrics leave no trace: the
    deterministic manifest equals a serial run's under the same failure."""
    reference = Campaign(_grid_config(faults=True)).run()

    original = FaultInjector.sample

    def flaky(self, time_s, position, speed_kmh, area):
        if self.drive_id == 1 and time_s > 100.0:
            raise RuntimeError("dish fell off in a worker")
        return original(self, time_s, position, speed_kmh, area)

    FaultInjector.sample = flaky
    try:
        serial = Campaign(_grid_config(faults=True), recorder=ObsRecorder())
        serial.run()
        campaign = Campaign(
            _grid_config(workers=2, faults=True), recorder=ObsRecorder()
        )
        dataset = campaign.run()
    finally:
        FaultInjector.sample = original

    report = campaign.report
    assert not report.ok
    assert report.drives_completed == 2
    assert [f.drive_id for f in report.failures] == [1]
    assert report.failures[0].error_type == "RuntimeError"
    assert "dish fell off" in report.failures[0].message
    assert "RuntimeError" in report.failures[0].traceback
    surviving = [r for r in reference.records if r.drive_id != 1]
    assert [r.samples for r in dataset.records] == [
        r.samples for r in surviving
    ]
    assert (
        campaign.manifest.deterministic_blob()
        == serial.manifest.deterministic_blob()
    )


# -- resume under parallelism --------------------------------------------


@pytest.mark.parametrize(
    "resilience",
    [None, ResilienceConfig(retry=RetryPolicy(max_attempts=2, base_delay_s=0.0))],
    ids=["no-retry", "retrying"],
)
def test_kill_mid_parallel_run_resumes_without_rerunning(tmp_path, resilience):
    """Kill a parallel run after drive k (via the fault injector), resume
    at a different worker count: checkpointed drives never re-execute and
    the final dataset matches an uninterrupted run byte for byte.  The
    ``KeyboardInterrupt`` raised inside a worker aborts the parent run;
    a retrying policy must not mistake it for a dead worker."""
    ckpt = tmp_path / "ckpt.json"
    ref, res = tmp_path / "ref.json", tmp_path / "res.json"
    Campaign(_grid_config(faults=True)).run().save_json(ref)

    original = FaultInjector.sample

    def killer(self, time_s, position, speed_kmh, area):
        if self.drive_id >= 2:
            raise KeyboardInterrupt
        return original(self, time_s, position, speed_kmh, area)

    # Drive 2 only starts once a first drive completed (2 workers, 3
    # drives), so the checkpoint is non-empty when the kill lands.
    FaultInjector.sample = killer
    try:
        with pytest.raises(KeyboardInterrupt):
            Campaign(
                _grid_config(workers=2, faults=True, resilience=resilience)
            ).run(checkpoint_path=ckpt)
    finally:
        FaultInjector.sample = original

    completed = {int(k) for k in json.loads(ckpt.read_text())["drives"]}
    assert completed and 2 not in completed

    def poison(self, time_s, position, speed_kmh, area):
        if self.drive_id in completed:
            raise RuntimeError("re-ran a checkpointed drive")
        return original(self, time_s, position, speed_kmh, area)

    FaultInjector.sample = poison
    try:
        resumed = Campaign(_grid_config(workers=3, faults=True))
        dataset = resumed.run(checkpoint_path=ckpt)
    finally:
        FaultInjector.sample = original

    assert resumed.report.drives_resumed == len(completed)
    assert resumed.report.drives_failed == 0
    dataset.save_json(res)
    assert ref.read_bytes() == res.read_bytes()


# -- obs merge + pickling units ------------------------------------------


def test_registry_merge_semantics():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c", network="RM").inc(3)
    b.counter("c", network="RM").inc(4)
    a.gauge("g").set(1.0)
    b.gauge("g").set(2.0)
    ha = a.histogram("h", buckets=(1.0, 10.0))
    hb = b.histogram("h", buckets=(1.0, 10.0))
    ha.observe(0.5)
    hb.observe(5.0)
    hb.observe(50.0)

    a.merge(b.snapshot())
    assert a.value("c", network="RM") == 7.0
    assert a.value("g") == 2.0  # last write wins
    merged = a.histogram("h", buckets=(1.0, 10.0))
    assert merged.counts == [1, 1, 1]
    assert merged.count == 3
    assert merged.total == pytest.approx(55.5)


def test_registry_merge_rejects_bucket_mismatch():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
    b.histogram("h", buckets=(1.0, 5.0)).observe(0.5)
    with pytest.raises(ValueError, match="bucket mismatch"):
        a.merge(b.snapshot())


def test_merge_snapshots_function():
    regs = []
    for value in (1, 2, 4):
        reg = MetricsRegistry()
        reg.counter("c").inc(value)
        reg.gauge("g").set(value)
        regs.append(reg.snapshot())
    merged = merge_snapshots(*regs)
    by_name = {(m["name"], m["type"]): m for m in merged}
    assert by_name[("c", "counter")]["value"] == 7.0
    assert by_name[("g", "gauge")]["value"] == 4.0


def test_null_recorder_pickles_to_singleton():
    clone = pickle.loads(pickle.dumps(NULL_RECORDER))
    assert clone is NULL_RECORDER


def test_obs_recorder_pickles_with_state():
    recorder = ObsRecorder()
    recorder.counter("c", k="v").inc(5)
    recorder.histogram("h", buckets=(1.0,)).observe(0.5)
    with recorder.span("s"):
        pass
    clone = pickle.loads(pickle.dumps(recorder))
    assert clone.registry.snapshot() == recorder.registry.snapshot()
    assert [s.to_dict() for s in clone.tracer.spans] == [
        s.to_dict() for s in recorder.tracer.spans
    ]
