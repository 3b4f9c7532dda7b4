"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import os
import statistics

import pytest

from perfbench import ROOT, use_checkout_source

use_checkout_source()

from perfbench import layers  # noqa: E402
from perfbench.checks import (  # noqa: E402
    RecordScheduleCheck,
    capacity_bound_bytes,
    check_delivery,
    check_identical_files,
    check_job_states,
    check_repeat_digests,
    check_shards,
)
from perfbench.measure import (  # noqa: E402
    median,
    quartiles,
    relative_spread,
    valid_name,
    valid_unit,
)
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, IperfPaths  # noqa: E402


# -- metric names ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "net.events_per_s", "store.cache_hit_ratio", "a", "9x-y_z.w"]
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_leading", ".dot", "-dash", "has space", "slash/name", "x" * 65, "é"]
)
def test_invalid_names(name):
    assert not valid_name(name)


def test_units_grammar():
    for unit in ("s", "ms", "1/s", "count", "%", "MB", "ratio"):
        assert valid_unit(unit)
    for unit in ("", "per second", "x" * 17, "s*"):
        assert not valid_unit(unit)


def test_every_reported_metric_is_well_formed_and_unique():
    names = [n for n, _ in END_TO_END] + [n for n, _ in layers.LAYER_METRICS]
    assert len(names) == len(set(names))
    for name, unit in END_TO_END + layers.LAYER_METRICS:
        assert valid_name(name), name
        assert valid_unit(unit), unit


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layers.LAYER_METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


# -- statistics -------------------------------------------------------------------


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert median(values) == statistics.median(values)
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = quartiles(values)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)


def test_spread_of_constant_values_is_zero():
    assert relative_spread([2.0] * 10) == 0.0


def test_statistics_reject_degenerate_input():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        quartiles([1.0])
    with pytest.raises(ValueError):
        relative_spread([0.0, 0.0, 0.0])


# -- output checks ---------------------------------------------------------------


def test_repeat_digests():
    assert check_repeat_digests(["ab", "ab", "ab"]) == []
    assert check_repeat_digests(["ab", "ab", "cd"])


def test_failed_job_is_reported():
    assert check_job_states({"cold": "done", "warm": "done"}) == []
    problems = check_job_states({"cold": "failed", "warm": "done"})
    assert len(problems) == 1 and "cold" in problems[0]


def test_flipped_shard_byte_fails_verification(tmp_path):
    from repro.store import verify_shard
    from repro.store.shard import build_shard_bytes

    data, _ = build_shard_bytes("f" * 16, 0, [{"x": 1}, {"x": 2}], {"meta": 1})
    path = tmp_path / "drive-00000.jsonl"
    path.write_bytes(data)
    assert check_shards([str(path)], verify_shard) == []
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    path.write_bytes(bytes(flipped))
    assert check_shards([str(path)], verify_shard)
    assert check_shards([], verify_shard)


def test_identical_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_bytes(b"{}")
    b.write_bytes(b"{}")
    assert check_identical_files(str(a), str(b)) == []
    b.write_bytes(b"{ }")
    assert check_identical_files(str(a), str(b))


def test_delivery_bound():
    bound = capacity_bound_bytes([8.0, 8.0], mtu_bytes=1500)
    assert bound >= 2e6
    assert check_delivery("x", 2_000_000, bound) == []
    assert check_delivery("x", int(bound) + 1, bound)
    assert check_delivery("x", -1, bound)


def _record(drive, k, start, kind=("udp", "dl", 1), network="A", loss=0.0, tput=1.0):
    return {
        "test_id": drive * 100 + k,
        "drive_id": drive,
        "network": network,
        "protocol": kind[0],
        "direction": kind[1],
        "parallel": kind[2],
        "retransmission_rate": 0.0,
        "samples": [
            {"time_s": start + i, "throughput_mbps": tput, "rtt_ms": 40.0,
             "loss_rate": loss, "speed_kmh": 80.0}
            for i in range(3)
        ],
    }


def _schedule_check():
    return RecordScheduleCheck(
        networks=("A", "B"),
        cycle=[("udp", "dl", 1), ("tcp", "dl", 4)],
        test_duration_s=3,
        window_period_s=10,
        stride=100,
    )


def _good_drive():
    return [
        _record(0, 0, 0.0, network="A"),
        _record(0, 1, 0.0, network="B"),
        _record(0, 2, 10.0, ("tcp", "dl", 4), network="A"),
        _record(0, 3, 10.0, ("tcp", "dl", 4), network="B"),
    ]


def test_schedule_check_accepts_a_good_drive():
    check = _schedule_check()
    for rec in _good_drive():
        check.add(rec)
    assert check.result(expected_count=4) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda recs: recs[1].update(network="A"),
        lambda recs: recs[2].update(protocol="udp"),
        lambda recs: recs[3].update(test_id=7),
        lambda recs: recs[2]["samples"].pop(),
        lambda recs: recs[2]["samples"][0].update(time_s=11.0),
        lambda recs: recs[0]["samples"][1].update(throughput_mbps=math.nan),
        lambda recs: recs[0]["samples"][1].update(loss_rate=1.5),
        lambda recs: recs[0].update(retransmission_rate=-0.1),
    ],
)
def test_schedule_check_rejects_corruption(corrupt):
    records = _good_drive()
    corrupt(records)
    check = _schedule_check()
    for rec in records:
        check.add(rec)
    assert check.result()


def test_schedule_check_rejects_a_wrong_count():
    check = _schedule_check()
    for rec in _good_drive()[:2]:
        check.add(rec)
    assert check.result(expected_count=4)
    assert _schedule_check().result()


# -- spans ---------------------------------------------------------------------


class _Layer:
    def leaf(self, n):
        return n

    def outer(self, n):
        return self.leaf(n) + self.leaf(n)


class _Child(_Layer):
    def leaf(self, n):
        return super().leaf(n)


def test_tracer_counts_outermost_calls_and_restores():
    original_outer, original_leaf = _Layer.__dict__["outer"], _Child.__dict__["leaf"]
    tracer = Tracer()
    tracer.wrap_method(_Layer, "outer", "outer", lambda a, k, r: a[1])
    tracer.wrap_method(_Layer, "leaf", "leaf")
    tracer.wrap_method(_Child, "leaf", "leaf")
    try:
        assert _Child().outer(3) == 6
        tracer.active = False
        _Child().leaf(1)
        tracer.active = True
    finally:
        tracer.uninstall()
    assert _Layer.__dict__["outer"] is original_outer
    assert _Child.__dict__["leaf"] is original_leaf
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["outer"]["units"] == 3
    # _Child.leaf wraps _Layer.leaf: two outermost leaf calls, four spans.
    assert summary["leaf"]["calls"] == 2
    assert len(tracer.start) == 5
    outer_span = summary["outer"]
    assert 0.0 <= outer_span["self_s"] <= outer_span["incl_s"]
    # Self times of all spans add up to the root span's duration.
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == pytest.approx(outer_span["incl_s"])


def test_tracer_write_round_trips(tmp_path):
    tracer = Tracer()
    tracer.wrap_method(_Layer, "outer", "outer")
    try:
        _Layer().outer(1)
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.jsonl"
    assert tracer.write(str(path)) == 1
    header, row = path.read_text().splitlines()
    assert json.loads(header)["names"] == ["outer"]
    name, start, end, parent, op = json.loads(row)
    assert (name, parent, op) == (0, -1, 0) and end >= start


# -- seeds and digests -------------------------------------------------------------


class _TinyIperf(IperfPaths):
    window_s = 2
    tests = [("udp", 1, True, 6000)]


def _digest(seed):
    workload = _TinyIperf()
    workload.setup(seed)
    result = workload.run_pass()
    assert result.failed == 0 and result.problems == []
    return result.digest


def test_digest_repeats_at_one_seed_and_changes_with_the_seed():
    first = _digest(3)
    assert _digest(3) == first
    assert _digest(4) != first
