"""Retry policy and resilience configuration.

The execution layer retries drives, not tests: a drive is a pure
function of ``(campaign config, drive id)`` — its RNG family is
``rng.fork(drive_id)`` and its test ids come from
``drive_id * TEST_ID_STRIDE`` — so re-running a failed drive reproduces
the exact payload an untouched run would have produced.  Retrying is
therefore *free* with respect to determinism: the only stochastic part
of a retry is the backoff jitter, which draws from its own named
:mod:`repro.rng` substream (``resilience.retry.<drive>``) and never
touches simulation state.

Everything here is execution-only configuration: like
:attr:`~repro.core.campaign.CampaignConfig.workers`, the
:class:`ResilienceConfig` is excluded from the config fingerprint
because any retry/watchdog setting produces byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Bucket bounds for the per-drive attempt histogram
#: (``resilience.drive_attempts``): most drives take 1 attempt, a
#: retried one 2-3; anything beyond 8 is a pathology worth seeing.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic, seeded jitter."""

    #: Total attempts per drive (1 = no retries).
    max_attempts: int = 3
    #: Delay before the first retry.
    base_delay_s: float = 0.25
    #: Multiplier applied per further retry.
    backoff: float = 2.0
    #: Ceiling on any single delay.
    max_delay_s: float = 30.0
    #: Jitter fraction: each delay is scaled by ``1 ± jitter * u`` with
    #: ``u ~ U(-1, 1)`` drawn from a seeded substream (0 disables).
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {self.max_delay_s}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    @property
    def max_retries(self) -> int:
        return self.max_attempts - 1

    def delay_s(
        self, retry_index: int, rng: np.random.Generator | None = None
    ) -> float:
        """Backoff before retry ``retry_index`` (1-based).

        ``rng`` is a ``numpy.random.Generator`` (typically
        ``RngStreams.get("resilience.retry.<drive>")``); passing the
        same seeded stream yields the same delay sequence, so even the
        *pacing* of a retried run is reproducible.
        """
        if retry_index < 1:
            raise ValueError(f"retry_index must be >= 1, got {retry_index}")
        raw = min(
            self.base_delay_s * self.backoff ** (retry_index - 1),
            self.max_delay_s,
        )
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(0.0, raw)


@dataclass(frozen=True)
class ResilienceConfig:
    """Execution-resilience knobs for a campaign.

    Attach one to :attr:`repro.core.campaign.CampaignConfig.resilience`
    to set per-drive retries (at every worker count) and the forked
    workers' watchdog deadline.  Without one the drive pool runs a
    single attempt per drive with no deadline.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Watchdog deadline per drive attempt (seconds); ``None`` disables
    #: hang detection (parallel runs only — a serial run cannot preempt
    #: its own thread).
    drive_timeout_s: float | None = None
    #: How often workers bump their heartbeat.
    heartbeat_interval_s: float = 0.5
    #: A worker whose heartbeat is older than this while a drive is
    #: in flight is considered wedged and killed.
    heartbeat_timeout_s: float = 60.0
    #: Supervision-loop tick (queue wait / watchdog scan period).
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(f"retry must be a RetryPolicy, got {type(self.retry)}")
        if self.drive_timeout_s is not None and self.drive_timeout_s <= 0:
            raise ValueError(
                f"drive_timeout_s must be positive or None, got {self.drive_timeout_s}"
            )
        if self.heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be positive, got {self.heartbeat_interval_s}"
            )
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s, got "
                f"{self.heartbeat_timeout_s} <= {self.heartbeat_interval_s}"
            )
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )


@dataclass
class ResilienceReport:
    """What the self-healing machinery actually did during one run.

    Rolled into :attr:`repro.core.campaign.CampaignReport.resilience`;
    every field is zero/None on a run that needed no healing, so clean
    serial and parallel reports stay byte-identical.
    """

    retries: int = 0
    watchdog_kills: int = 0
    worker_deaths: int = 0
    workers_replaced: int = 0
    integrity_failures: int = 0
    drives_salvaged: int = 0
    checkpoint_quarantined: str | None = None
    checkpoint_error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "retries": self.retries,
            "watchdog_kills": self.watchdog_kills,
            "worker_deaths": self.worker_deaths,
            "workers_replaced": self.workers_replaced,
            "integrity_failures": self.integrity_failures,
            "drives_salvaged": self.drives_salvaged,
            "checkpoint_quarantined": self.checkpoint_quarantined,
            "checkpoint_error": self.checkpoint_error,
        }
