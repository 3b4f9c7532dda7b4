"""repro.resilience: self-healing campaign execution.

The execution layer's immune system, built from four pieces that the
campaign (:mod:`repro.core.campaign`) and its drive pool wire
together:

* a **failure taxonomy** (:mod:`~repro.resilience.taxonomy`) that
  classifies failures as transient (retry) or permanent (report), plus
  the typed errors the rest of the system raises;
* a **retry policy** (:mod:`~repro.resilience.policy`) with bounded,
  deterministically-jittered exponential backoff — retries re-run a
  pure function, so healed runs stay byte-identical to untouched ones;
* **artifact integrity** (:mod:`~repro.resilience.integrity`) — content
  digests embedded in every persisted JSON artifact, and
  quarantine-and-salvage for corrupt checkpoints;
* **graceful shutdown** (:mod:`~repro.resilience.signals`) and the
  **drive pool** (:mod:`~repro.resilience.pool`), every campaign's
  only executor: in-process at one worker, supervised forked workers
  (per-drive deadlines, heartbeat liveness, kill-and-requeue) above.

See the "Resilience" section of ``docs/FAULTS.md`` for the model.
"""

from repro.resilience.integrity import (
    DIGEST_KEY,
    embed_digest,
    payload_digest,
    quarantine,
    salvage_drives,
    verify_digest,
)
from repro.resilience.policy import (
    ATTEMPT_BUCKETS,
    ResilienceConfig,
    ResilienceReport,
    RetryPolicy,
)
from repro.resilience.signals import ShutdownFlag, graceful_shutdown
from repro.resilience.taxonomy import (
    ArtifactCorruptError,
    CampaignAborted,
    CheckpointCorruptError,
    DriveTimeout,
    FailureClass,
    TRANSIENT_ERROR_TYPES,
    TransientDriveError,
    WorkerDied,
    classify_exception,
    classify_failure,
)

__all__ = [
    "ATTEMPT_BUCKETS",
    "ArtifactCorruptError",
    "CampaignAborted",
    "CheckpointCorruptError",
    "DIGEST_KEY",
    "DriveTimeout",
    "FailureClass",
    "ResilienceConfig",
    "ResilienceReport",
    "RetryPolicy",
    "ShutdownFlag",
    "TRANSIENT_ERROR_TYPES",
    "TransientDriveError",
    "WorkerDied",
    "classify_exception",
    "classify_failure",
    "embed_digest",
    "graceful_shutdown",
    "payload_digest",
    "quarantine",
    "salvage_drives",
    "verify_digest",
]
