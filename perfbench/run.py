"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the checkout root against ``src/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The lines before it say what
ran, on what machine, and any output check that failed; a failed check
makes the exit code 1.  A full result file and, for a traced run, the
span dump land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import OUT_DIR, MissingSourceError, use_checkout_source  # noqa: E402

#: Extra fresh interpreters whose set-up time is measured; ``setup_s`` is
#: the median over them and this process.
SETUP_PROBES = 2
#: Passes at least, so the output digest is always compared across repeats.
MIN_PASSES = 2

#: (name, unit) of every end-to-end metric.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_per_ref_s", "1/ref-s")]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up, report readiness and exit (used for setup_s)",
    )
    return parser.parse_args(argv)


def process_age_s() -> float:
    """Seconds since this process started (Linux ``/proc``, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    with open("/proc/uptime", encoding="ascii") as handle:
        uptime_s = float(handle.read().split()[0])
    # Field 22 of stat, the start time in clock ticks after boot.
    return uptime_s - int(fields[19]) / os.sysconf("SC_CLK_TCK")


def setup_sample() -> tuple[float, float]:
    """(wall, reference) seconds from this interpreter's start to now.

    Calibrates straight after, on the CPU that did the set-up.
    """
    from perfbench.measure import REFERENCE_S, calibrate

    wall = process_age_s()
    return wall, wall * REFERENCE_S / calibrate()


def measure_setup(args: argparse.Namespace) -> list[tuple[float, float]]:
    """:func:`setup_sample` of fresh interpreters that set up and exit."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        result = subprocess.run(command, capture_output=True, text=True, check=False)
        fields = result.stdout.split()
        if result.returncode != 0 or len(fields) != 2:
            raise RuntimeError(
                f"set-up probe failed (exit {result.returncode}): {result.stderr[-500:]}"
            )
        samples.append((float(fields[0]), float(fields[1])))
    return samples


def run_guarded(run):
    """A pass that raised counts as one failed operation, not a crash."""
    from perfbench.workloads import PassResult

    try:
        return run()
    except Exception as exc:
        traceback.print_exc()
        return PassResult(ops=1, failed=1, problems=[f"{type(exc).__name__}: {exc}"])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_source()
    except MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from perfbench import layers
    from perfbench.checks import check_repeat_digests
    from perfbench.measure import environment, median, peak_rss_mb
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    os.environ["TMPDIR"] = OUT_DIR
    workload = WORKLOADS[args.workload]()

    if args.setup_probe:
        workload.setup(args.seed)
        print(*setup_sample(), flush=True)
        workload.close()
        return 0

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} env={json.dumps(env, sort_keys=True)}", flush=True)
    workload.setup(args.seed)
    # This process first, before the probes add to its age.
    setup_samples = [setup_sample(), *measure_setup(args)] if args.trace == 0 else []
    if setup_samples:
        print("setup samples (wall/ref s): "
              + " ".join(f"{w:.3f}/{r:.3f}" for w, r in setup_samples), flush=True)
    for note in workload.notes:
        print(f"note: {note}")
    try:
        # Passes repeat until their timed operations add up to --seconds;
        # the untimed output checks and calibrations between them do not
        # count.
        passes = []
        while len(passes) < MIN_PASSES or sum(p.wall_s for p in passes) < args.seconds:
            result = run_guarded(workload.run_pass)
            passes.append(result)
            if result.failed == result.ops:
                break
            print(f"pass {len(passes)}: {result.wall_s:.3f}s ({result.ref_s:.3f} ref-s) "
                  f"work={result.work:.6g} ops={result.ops} failed={result.failed} "
                  f"digest={result.digest[:16]}", flush=True)
        rss = peak_rss_mb()

        traced = reference = tracer = counters = None
        if args.trace:
            import repro.obs as obs

            reference = run_guarded(workload.reference_pass)
            tracer = Tracer()
            layers.install(tracer)
            recorder = obs.ObsRecorder()
            try:
                with obs.use_recorder(recorder):
                    traced = run_guarded(lambda: workload.run_pass(tracer=tracer))
            finally:
                tracer.uninstall()
            counters = layers.counter_totals(
                [recorder.registry.snapshot(), *traced.snapshots]
            )
    finally:
        workload.close()

    runs = passes + [p for p in (reference, traced) if p is not None]
    problems = [f"pass {i + 1}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    if traced is not None:
        problems += [f"traced pass: {msg}" for msg in traced.problems]
    if reference is not None:
        problems += [f"reference pass: {msg}" for msg in reference.problems]
    attempted = sum(p.ops for p in runs)
    failed = sum(p.failed for p in runs)
    digests = [p.digest for p in runs if p.digest and not p.failed]
    repeat_problems = check_repeat_digests(digests)
    if repeat_problems:
        problems += repeat_problems
        failed = max(failed, 1)
    rates = [p.rate for p in passes if not p.failed and p.ref_s > 0 and p.work > 0]
    if not rates and not failed:
        problems.append("no pass completed any work")
        failed = 1

    if args.trace == 0:
        values = {
            "setup_s": median(ref for _, ref in setup_samples),
            "peak_rss_mb": rss,
            "work_per_ref_s": median(rates) if rates else 0.0,
        }
        units = dict(END_TO_END)
        wall_rates = [p.work / p.wall_s for p in passes if not p.failed and p.wall_s > 0]
        if wall_rates:
            print(f"wall-clock: setup {median(w for w, _ in setup_samples):.3f}s, "
                  f"work per second {median(wall_rates):.6g}")
        detail = {"setup_samples_wall_ref_s": setup_samples}
    else:
        extras: dict[str, float] = {}
        for key in ("serve.job_cold_s", "serve.job_warm_s", "executor.cpu_util"):
            seen = [p.extras[key] for p in passes if key in p.extras]
            extras[key] = median(seen) if seen else 0.0
        if (os.cpu_count() or 1) < 2 and any("executor.cpu_util" in p.extras for p in passes):
            print("executor.cpu_util: unresolved (nproc < 2), reported as -1")
            extras["executor.cpu_util"] = -1.0
        spans = tracer.summary()
        job_wall = sum(traced.extras.get(f"serve.job_{k}_s", 0.0) for k in ("cold", "warm"))
        extras["serve.overhead_s"] = (
            job_wall
            - spans.get("campaign.run", {}).get("incl_s", 0.0)
            - spans.get("dataset.save_json", {}).get("incl_s", 0.0)
            if job_wall else 0.0
        )
        base = reference.ref_s if reference is not None else median(p.ref_s for p in passes)
        extras["trace.overhead_ratio"] = traced.ref_s / base if base > 0 else 0.0
        if reference is not None:
            print("traced pass: served jobs run with isolation='inline' and workers=1 "
                  "(spans of forked children are lost); trace.overhead_ratio compares "
                  "it with an untraced inline pass; executor.cpu_util comes from the "
                  "untraced fork passes")
        values = layers.compute(tracer, counters, extras)
        units = dict(layers.LAYER_METRICS)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        count = tracer.write(spans_path)
        print(f"spans: {count} written to {os.path.relpath(spans_path)}")
        detail = {"spans": spans, "counters": counters}

    correct = failed == 0 and not problems
    ratio = failed / attempted if attempted else 1.0
    print(f"failed_ratio: {ratio:.6g} ({failed}/{attempted})")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "failed_ratio": ratio,
            "passes": [{"wall_s": p.wall_s, "ref_s": p.ref_s, "work": p.work,
                        "digest": p.digest, "extras": p.extras} for p in passes],
            "problems": problems, "metrics": metrics, **detail,
        }, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
