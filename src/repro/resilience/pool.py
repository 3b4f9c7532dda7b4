"""The drive executor: every campaign runs its drives through this pool.

A campaign is a set of independent drives, and a drive is a pure
function of ``(config, drive_id)``: its RNG family is
``rng.fork(drive_id)`` and its tests are numbered from
``drive_id * TEST_ID_STRIDE``.  :func:`run_drives` is the one place
drives execute, in one of two modes:

* ``workers == 1`` — the **in-process** case: drives run one after the
  other in the calling process, no fork;
* ``workers > 1`` — **forked, supervised** workers, each rebuilding the
  (deterministic, ~1 ms) campaign world from the config.  The pool owns
  its worker processes directly, so it can do what a stock executor
  cannot:

  * **per-drive deadlines** — an attempt that outlives
    ``drive_timeout_s`` gets its worker killed (SIGKILL; a hung process
    does not honour polite signals) and the drive requeued;
  * **heartbeat liveness** — each worker bumps a shared timestamp from a
    daemon thread; a worker that stops beating while a drive is in
    flight is wedged and treated like a hang, and a worker that *dies*
    (crash, OOM kill) mid-drive is detected as ``WorkerDied``;
  * **excluded-worker accounting** — a drive is never requeued onto a
    worker that already hung or died running it; replacements are
    spawned when the survivors cannot cover the remaining work.

Both modes share one attempt function (:func:`_attempt_drive`), one retry
decision (a transient failure with budget left under the
:class:`~repro.resilience.policy.RetryPolicy`, with deterministic seeded
backoff), and one drive-order merge (:func:`merge_drive_results`).
``CampaignConfig.resilience = None`` is a zero-retry policy with no
deadline.  Each finished drive commits the checkpoint and writes its
cache entry at once, whatever the mode.

Determinism holds by construction: a retried or re-homed drive produces
the payload an untouched run would have, byte for byte, and results
merge in drive order, so dataset, checkpoint, report, and deterministic
manifest are identical at every worker count.  Only the *success*
attempt's metric snapshot is merged — failed and abandoned attempts
leave no metric trace — and the healing itself is reported through
``resilience.*`` metrics (excluded from the deterministic manifest view)
and the campaign report.

``KeyboardInterrupt``, ``SystemExit``, and any other ``BaseException``
that is not an ``Exception`` are not isolation-captured: they abort the
run after the last checkpoint.  A forked worker hands such an exception
to the parent, which re-raises it.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import queue as queue_module
import signal as signal_module
import threading
import time

from repro.obs.recorder import NULL_RECORDER, ObsRecorder
from repro.resilience.policy import ATTEMPT_BUCKETS, ResilienceConfig, RetryPolicy
from repro.resilience.taxonomy import (
    CampaignAborted,
    FailureClass,
    classify_exception,
)

#: A drive waiting to run: which attempt this is, and the earliest
#: monotonic time it may be dispatched (retry backoff).
_Task = collections.namedtuple("_Task", ["drive_id", "attempt", "eligible_at"])

#: What ``CampaignConfig.resilience = None`` means: one attempt per
#: drive, no deadline.
_NO_RETRY = ResilienceConfig(retry=RetryPolicy(max_attempts=1))


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("worker_id", "process", "task_q", "heartbeat", "current", "deadline")

    def __init__(self, worker_id, process, task_q, heartbeat):
        self.worker_id = worker_id
        self.process = process
        self.task_q = task_q
        self.heartbeat = heartbeat
        #: ``(drive_id, attempt)`` in flight, or None when idle.
        self.current: tuple[int, int] | None = None
        #: Monotonic watchdog deadline for the in-flight attempt.
        self.deadline: float | None = None


def _mp_context():
    """Prefer fork where available; otherwise the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _attempt_drive(campaign, routes, drive_id: int, attempt: int, observe: bool) -> dict:
    """Run one attempt of one drive; return a plain result dict.

    ``observe`` mirrors the parent recorder's ``enabled`` flag: when set,
    the attempt runs under a fresh :class:`ObsRecorder` whose registry
    snapshot rides back with the payload for the drive-order merge.  An
    ordinary exception becomes a failure entry (traceback attached,
    classified transient or permanent while the live exception is at
    hand); any other ``BaseException`` escapes and aborts the run.
    """
    from repro.core.campaign import DriveFailure

    route = routes[drive_id]
    recorder = ObsRecorder() if observe else NULL_RECORDER
    previous, campaign.obs = campaign.obs, recorder
    campaign.current_attempt = attempt
    started = time.perf_counter()
    try:
        payload = campaign._simulate_drive(drive_id, route)
    except Exception as exc:  # isolation is the point
        return {
            "drive_id": drive_id,
            "attempt": attempt,
            "ok": False,
            "transient": classify_exception(exc) is FailureClass.TRANSIENT,
            "failure": DriveFailure.from_exception(drive_id, route.name, exc).to_dict(),
            "elapsed_s": time.perf_counter() - started,
            "metrics": [],
        }
    finally:
        campaign.obs = previous
    return {
        "drive_id": drive_id,
        "attempt": attempt,
        "ok": True,
        "payload": payload,
        "elapsed_s": time.perf_counter() - started,
        "metrics": recorder.registry.snapshot() if observe else [],
    }


# -- worker side ---------------------------------------------------------


def _worker_main(
    worker_id: int,
    config,
    task_q,
    result_q,
    observe: bool,
    heartbeat,
    heartbeat_interval_s: float,
    store_root=None,
) -> None:
    """Worker loop: rebuild the world, then run drives until sentinel.

    SIGINT is ignored — a Ctrl+C lands on the whole process group, and
    shutdown belongs to the parent (which checkpoints first); a worker
    dying to the signal would masquerade as a crash and trigger a
    spurious requeue.  SIGTERM keeps its default so the parent's
    graceful teardown still works.
    """
    try:
        signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
    except (ValueError, OSError):
        pass
    from repro.core.campaign import Campaign

    campaign = Campaign(config, recorder=NULL_RECORDER)
    if store_root is not None:
        # Stream each drive's records to its write-ahead shard as they
        # complete.  A durability optimization only: the committing
        # parent re-derives the expected shard bytes and trusts a
        # streamed file only if it matches exactly.
        from repro.store import ShardStore

        campaign._shard_store = ShardStore(store_root, config.fingerprint())
    routes = campaign._routes()

    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_interval_s)

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        while True:
            task = task_q.get()
            if task is None:
                return
            drive_id, attempt = task
            result_q.put(
                {"kind": "start", "worker": worker_id, "drive": drive_id, "attempt": attempt}
            )
            try:
                result = _attempt_drive(campaign, routes, drive_id, attempt, observe)
            except BaseException as exc:
                # Not a drive failure but an abort of the whole run: the
                # parent re-raises it after the last checkpoint.  The
                # message is flushed before this process exits.
                result_q.put({"kind": "abort", "worker": worker_id, "exc": exc})
                raise
            result_q.put({"kind": "done", "worker": worker_id, "result": result})
    finally:
        stop.set()


# -- parent side ---------------------------------------------------------


class _Drives:
    """What both modes share: the task queue, the retry decision, and
    per-drive completion (checkpoint commit and cache write)."""

    def __init__(self, campaign, routes, drive_payloads, checkpoint_path, pending):
        self.campaign = campaign
        self.routes = routes
        self.drive_payloads = drive_payloads
        self.checkpoint_path = checkpoint_path
        self.res: ResilienceConfig = campaign.config.resilience or _NO_RETRY
        self.tasks: collections.deque[_Task] = collections.deque(
            _Task(d, 0, 0.0) for d in pending
        )
        self.total = len(pending)
        self.results: dict[int, dict] = {}
        self._jitter_rngs: dict[int, object] = {}

    @property
    def finished(self) -> bool:
        return len(self.results) == self.total

    def _retry_delay(self, drive_id: int, retry_index: int) -> float:
        policy = self.res.retry
        rng = None
        if policy.jitter:
            rng = self._jitter_rngs.get(drive_id)
            if rng is None:
                rng = self.campaign.rng.get(f"resilience.retry.{drive_id}")
                self._jitter_rngs[drive_id] = rng
        return policy.delay_s(retry_index, rng)

    def settle(self, result: dict) -> None:
        """One attempt is over: requeue the drive while a transient
        failure has retry budget left, otherwise record its outcome."""
        campaign = self.campaign
        obs = campaign.obs
        drive_id, attempt = result["drive_id"], result["attempt"]
        if drive_id in self.results:
            return  # late duplicate (e.g. a kill raced a completion)
        if (
            not result["ok"]
            and result["transient"]
            and attempt + 1 < self.res.retry.max_attempts
        ):
            campaign._resilience.retries += 1
            obs.counter("resilience.retries", kind=result["failure"]["error_type"]).inc()
            eligible_at = time.monotonic() + self._retry_delay(drive_id, attempt + 1)
            self.tasks.append(_Task(drive_id, attempt + 1, eligible_at))
            return
        # A kill may have requeued this drive already; the outcome at
        # hand wins (a success is byte-identical to any retry's).
        self.tasks = collections.deque(t for t in self.tasks if t.drive_id != drive_id)
        self.results[drive_id] = result
        if result["ok"]:
            payload = result["payload"]
            if result["metrics"]:
                # Ride the per-drive metric delta in the checkpoint so
                # resume can restore it.
                payload["metrics"] = result["metrics"]
            self.drive_payloads[drive_id] = payload
            if obs.enabled:
                obs.tracer.record(
                    "campaign.drive",
                    result["elapsed_s"],
                    drive=drive_id,
                    route=self.routes[drive_id].name,
                )
            campaign._cache_put(drive_id, payload)
        if self.checkpoint_path is not None:
            campaign._commit_progress(self.drive_payloads)

    def check_shutdown(self, shutdown) -> None:
        if shutdown is not None and shutdown.requested:
            raise CampaignAborted(
                f"shutdown requested (signal {shutdown.signum}); "
                f"{len(self.drive_payloads)} drives checkpointed"
            )


def run_drives(
    campaign,
    routes,
    drive_payloads: dict[int, dict],
    checkpoint_path: str | os.PathLike | None,
    shutdown=None,
) -> list:
    """Run every not-yet-completed drive; the campaign's only executor.

    Fills ``drive_payloads`` in place (drives already present — restored
    from a checkpoint or the cache — never re-run), commits progress
    after every finished drive, and returns the
    :class:`~repro.core.campaign.DriveFailure` list in drive order.
    ``shutdown`` is a :class:`~repro.resilience.signals.ShutdownFlag`;
    when it trips the pool raises :class:`CampaignAborted` after the
    last checkpoint, so a later run at any worker count resumes there.
    """
    pending = [d for d in range(len(routes)) if d not in drive_payloads]
    if not pending:
        return []
    drives = _Drives(campaign, routes, drive_payloads, checkpoint_path, pending)
    if campaign.config.workers == 1:
        _run_in_process(drives, shutdown)
    else:
        workers = min(campaign.config.workers, len(pending))
        with campaign.obs.span("campaign.parallel", workers=workers):
            _run_forked(drives, workers, shutdown)
    return merge_drive_results(campaign, routes, drives.results)


def _run_in_process(drives: _Drives, shutdown) -> None:
    """Drives in this process, in queue order, sleeping out any backoff."""
    campaign = drives.campaign
    observe = campaign.obs.enabled
    while drives.tasks:
        task = drives.tasks.popleft()
        delay = task.eligible_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        drives.settle(
            _attempt_drive(campaign, drives.routes, task.drive_id, task.attempt, observe)
        )
        drives.check_shutdown(shutdown)


def _run_forked(drives: _Drives, initial_pool: int, shutdown) -> None:
    """Drives across supervised worker processes (see module docstring)."""
    campaign = drives.campaign
    cfg = campaign.config
    res = drives.res
    routes = drives.routes
    obs = campaign.obs
    events = campaign._resilience
    store = campaign._shard_store

    ctx = _mp_context()
    result_q = ctx.Queue()
    workers: dict[int, _Worker] = {}
    next_worker_id = 0

    def spawn() -> _Worker:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        task_q = ctx.Queue()
        heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                cfg,
                task_q,
                result_q,
                obs.enabled,
                heartbeat,
                res.heartbeat_interval_s,
                store.root if store is not None else None,
            ),
            daemon=True,
        )
        process.start()
        worker = _Worker(worker_id, process, task_q, heartbeat)
        workers[worker_id] = worker
        if worker_id >= initial_pool:
            events.workers_replaced += 1
            obs.counter("resilience.workers_replaced").inc()
        return worker

    #: drive_id -> worker ids that hung or died running it.
    excluded: dict[int, set[int]] = {t.drive_id: set() for t in drives.tasks}

    def lose_attempt(worker: _Worker, error_type: str, message: str) -> None:
        """The worker's in-flight attempt is gone: a transient failure,
        retried on another worker while the budget lasts."""
        drive_id, attempt = worker.current
        excluded[drive_id].add(worker.worker_id)
        failure = {
            "drive_id": drive_id,
            "route_name": routes[drive_id].name,
            "error_type": error_type,
            "message": message,
            "traceback": "",
        }
        drives.settle(
            {
                "drive_id": drive_id,
                "attempt": attempt,
                "ok": False,
                "transient": True,
                "failure": failure,
                "elapsed_s": 0.0,
                "metrics": [],
            }
        )

    def kill_worker(worker: _Worker, reason: str) -> None:
        """SIGKILL a hung/wedged worker; its attempt is lost."""
        drive_id, attempt = worker.current
        events.watchdog_kills += 1
        obs.counter("resilience.watchdog_kills", reason=reason).inc()
        if worker.process.is_alive():
            worker.process.kill()  # SIGKILL: a hung process ignores polite asks
            worker.process.join(2.0)
        del workers[worker.worker_id]
        lose_attempt(
            worker,
            "DriveTimeout",
            f"drive {drive_id} attempt {attempt + 1} {reason} on worker "
            f"{worker.worker_id} (deadline {res.drive_timeout_s}s); killed",
        )

    def reap_worker(worker: _Worker) -> None:
        """A worker died on its own; whatever it was running is lost."""
        del workers[worker.worker_id]
        if worker.current is None:
            return
        drive_id, attempt = worker.current
        events.worker_deaths += 1
        obs.counter("resilience.worker_deaths").inc()
        lose_attempt(
            worker,
            "WorkerDied",
            f"worker {worker.worker_id} died (exit code {worker.process.exitcode}) "
            f"while running drive {drive_id} attempt {attempt + 1}",
        )

    for _ in range(initial_pool):
        spawn()

    hard_stop = True
    try:
        while not drives.finished:
            now = time.monotonic()

            # Dispatch eligible tasks to idle workers they are not
            # excluded from.
            idle = [
                w
                for w in workers.values()
                if w.current is None and w.process.is_alive()
            ]
            if drives.tasks and idle:
                held: collections.deque[_Task] = collections.deque()
                while drives.tasks:
                    task = drives.tasks.popleft()
                    target = None
                    if task.eligible_at <= now:
                        target = next(
                            (
                                w
                                for w in idle
                                if w.worker_id not in excluded[task.drive_id]
                            ),
                            None,
                        )
                    if target is None:
                        held.append(task)
                        continue
                    idle.remove(target)
                    target.current = (task.drive_id, task.attempt)
                    if res.drive_timeout_s is not None:
                        target.deadline = now + res.drive_timeout_s
                    target.task_q.put((task.drive_id, task.attempt))
                drives.tasks = held

            # Starvation guard: an eligible task every live worker is
            # excluded from (or an empty pool) needs a fresh worker.
            live_ids = {
                wid for wid, w in workers.items() if w.process.is_alive()
            }
            if len(workers) < cfg.workers + drives.total:  # hard spawn cap
                for task in drives.tasks:
                    if task.eligible_at <= now and live_ids <= excluded[task.drive_id]:
                        spawn()
                        break

            # Workers found dead *before* draining have flushed every
            # message they sent (an abort included), so the drain below
            # sees it before they are reaped.
            dead = [w for w in workers.values() if not w.process.is_alive()]

            # Wait for worker traffic, then drain everything queued.
            try:
                msg = result_q.get(timeout=res.poll_interval_s)
            except queue_module.Empty:
                msg = None
            while msg is not None:
                worker = workers.get(msg["worker"])
                if msg["kind"] == "abort":
                    raise msg["exc"]
                if msg["kind"] == "start":
                    # Refine the deadline to the actual start of work.
                    if (
                        worker is not None
                        and worker.current == (msg["drive"], msg["attempt"])
                        and res.drive_timeout_s is not None
                    ):
                        worker.deadline = time.monotonic() + res.drive_timeout_s
                else:
                    result = msg["result"]
                    if worker is not None and worker.current == (
                        result["drive_id"],
                        result["attempt"],
                    ):
                        worker.current = None
                        worker.deadline = None
                    drives.settle(result)
                try:
                    msg = result_q.get_nowait()
                except queue_module.Empty:
                    msg = None

            # Watchdog scan: dead workers, deadlines, wedged heartbeats.
            for worker in dead:
                if worker.worker_id in workers:
                    reap_worker(worker)
            now = time.monotonic()
            for worker in list(workers.values()):
                if worker.current is None or not worker.process.is_alive():
                    continue
                if worker.deadline is not None and now > worker.deadline:
                    kill_worker(worker, "exceeded its deadline")
                elif (now - worker.heartbeat.value) > res.heartbeat_timeout_s:
                    kill_worker(worker, "stopped heartbeating")

            drives.check_shutdown(shutdown)
        hard_stop = False
    finally:
        _stop_pool(workers, result_q, graceful=not hard_stop)


def merge_drive_results(campaign, routes, results: dict[int, dict]) -> list:
    """Fold per-drive results into the campaign, in drive order.

    Metric snapshots merge into the campaign registry (counters and
    histograms add, gauges are last-write-wins in drive order), every
    drive's attempt count feeds ``resilience.drive_attempts`` (excluded
    from the deterministic manifest view, so healed and untouched runs
    still match byte for byte), and failures come back as
    :class:`~repro.core.campaign.DriveFailure` in drive order.
    """
    from repro.core.campaign import DriveFailure

    obs = campaign.obs
    failures: list = []
    for drive_id in sorted(results):
        result = results[drive_id]
        if obs.enabled and result["metrics"]:
            obs.registry.merge(result["metrics"])
        obs.histogram(
            "resilience.drive_attempts", buckets=ATTEMPT_BUCKETS
        ).observe(result["attempt"] + 1)
        if result["ok"]:
            campaign._note_drive_done(
                drive_id,
                routes[drive_id].name,
                result["elapsed_s"],
                len(result["payload"]["records"]),
            )
        else:
            failures.append(DriveFailure(**result["failure"]))
            obs.counter("campaign.drives_failed").inc()
    return failures


def _stop_pool(workers: dict[int, _Worker], result_q, graceful: bool) -> None:
    """Tear the pool down; politely when the work finished, not when
    aborting (a hung worker would stall a polite join forever)."""
    if graceful:
        for worker in workers.values():
            if worker.process.is_alive():
                try:
                    worker.task_q.put_nowait(None)
                except (queue_module.Full, OSError, ValueError):
                    pass
        deadline = time.monotonic() + 5.0
        for worker in workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
    for worker in workers.values():
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(1.0)
        worker.task_q.close()
        worker.task_q.cancel_join_thread()
    result_q.close()
    result_q.cancel_join_thread()
