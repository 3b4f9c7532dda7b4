"""Extension experiments (reduced scale)."""

import numpy as np
import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def ext_fec():
    """One deterministic ext-fec run, shared by the tests that read it."""
    return run_experiment("ext-fec", duration_s=45, seed=3, segment_bytes=6000)


def test_ext_fec_recovers_gap(ext_fec):
    result = ext_fec
    udp = result.row("UDP (ceiling)").goodput_mbps
    tcp = result.row("TCP (baseline)").goodput_mbps
    fec = result.row("FEC k=20 r=4").goodput_mbps
    assert tcp < udp  # the paper's diagnosis
    assert fec > tcp  # the remedy works
    assert fec <= udp * 1.02
    assert result.row("FEC k=20 r=4").overhead == pytest.approx(4 / 24)


def test_ext_fec_more_repair_less_block_loss(ext_fec):
    result = ext_fec
    weak = result.row("FEC k=20 r=2").block_loss_rate
    strong = result.row("FEC k=20 r=4").block_loss_rate
    assert strong <= weak + 0.02


def test_ext_scheduler_rows():
    result = run_experiment(
        "ext-scheduler", duration_s=60, seed=11, segment_bytes=6000
    )
    names = {r.name for r in result.rows_data}
    assert names == {"blest", "minrtt", "roundrobin", "sataware"}
    sataware = result.row("sataware")
    blest = result.row("blest")
    assert sataware.goodput_mbps > 0.75 * blest.goodput_mbps
    assert np.isfinite(sataware.fluctuation_cv)


def test_ext_switching_ordering():
    result = run_experiment(
        "ext-switching", duration_s=60, seed=11, segment_bytes=6000
    )
    single = result.row("best single (MOB)").mean_mbps if any(
        r.label == "best single (MOB)" for r in result.rows_data
    ) else result.row("best single (VZ)").mean_mbps
    switcher = result.row("hysteresis switcher").mean_mbps
    oracle = result.row("oracle (Fig. 9)").mean_mbps
    # The ordering the extension argues: reality <= oracle; oracle >= single.
    assert switcher <= oracle * 1.01
    assert oracle >= single
