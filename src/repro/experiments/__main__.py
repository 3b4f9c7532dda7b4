"""Command-line figure regeneration.

Usage::

    python -m repro.experiments            # list experiments
    python -m repro.experiments fig9       # regenerate Figure 9 (medium)
    python -m repro.experiments fig9 --scale small --seed 3
    python -m repro.experiments fig10 --duration 90

Campaign-scale experiments accept ``--scale/--seed`` (plus ``--workers``
to shard campaign generation across processes — output is byte-identical
at any worker count); transport-scale experiments accept
``--duration/--seed``.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.experiments import REGISTRY, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one of the paper's figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(REGISTRY),
        help="experiment id (omit to list all)",
    )
    parser.add_argument("--scale", default="medium", help="campaign scale")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for campaign generation (same output at "
        "any count; see docs/API.md)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry each failed drive up to N times when the failure is "
        "transient (same output with or without retries; see "
        "docs/FAULTS.md)",
    )
    parser.add_argument(
        "--drive-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog deadline per drive attempt; with --workers > 1 a "
        "drive exceeding it is killed and requeued on another worker "
        "(a serial run cannot preempt itself and ignores it)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed drive cache: reuse digest-verified drive "
        "results across runs sharing a config fingerprint (same output "
        "with or without the cache; see docs/ARTIFACTS.md)",
    )
    parser.add_argument(
        "--artifact-format",
        choices=["json", "jsonl"],
        default=None,
        help="checkpoint layout: monolithic 'json' or digest-chained "
        "streaming 'jsonl' shards (see docs/ARTIFACTS.md)",
    )
    parser.add_argument(
        "--duration", type=int, default=None, help="test duration (seconds)"
    )
    parser.add_argument(
        "--csv", default=None, metavar="FILE", help="also write rows as CSV"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render an ASCII version of the figure",
    )
    args = parser.parse_args(argv)

    if args.experiment is None:
        print("Available experiments:")
        for key, (_, description) in sorted(REGISTRY.items()):
            print(f"  {key:<8} {description}")
        return 0

    if args.workers != 1:
        from repro.experiments.common import set_default_workers

        set_default_workers(args.workers)

    if args.retries is not None or args.drive_timeout is not None:
        from repro.experiments.common import set_default_resilience
        from repro.resilience import ResilienceConfig, RetryPolicy

        if args.retries is not None and args.retries < 0:
            parser.error(f"--retries must be >= 0, got {args.retries}")
        retry = RetryPolicy(
            max_attempts=(args.retries + 1) if args.retries is not None else 1
        )
        set_default_resilience(
            ResilienceConfig(retry=retry, drive_timeout_s=args.drive_timeout)
        )

    if args.cache_dir is not None:
        from repro.experiments.common import set_default_cache_dir

        set_default_cache_dir(args.cache_dir)

    if args.artifact_format is not None:
        from repro.experiments.common import set_default_artifact_format

        set_default_artifact_format(args.artifact_format)

    module, description = REGISTRY[args.experiment]
    accepted = inspect.signature(module.run).parameters
    kwargs = {}
    if "scale" in accepted:
        kwargs["scale"] = args.scale
    if args.seed is not None and "seed" in accepted:
        kwargs["seed"] = args.seed
    if args.duration is not None and "duration_s" in accepted:
        kwargs["duration_s"] = args.duration

    print(f"== {args.experiment}: {description}")
    result = run_experiment(args.experiment, **kwargs)
    for row in result.rows():
        print("  ", *row)
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerows(result.rows())
        print(f"wrote {args.csv}")
    if args.plot:
        rendered = render_ascii(args.experiment, result)
        if rendered:
            print("\n" + rendered)
        else:
            print("(no ASCII rendering for this experiment)")
    return 0


def render_ascii(experiment_id: str, result) -> str | None:
    """Best-effort ASCII rendering per figure family."""
    from repro import report

    if experiment_id in ("fig1", "fig11"):
        if experiment_id == "fig1":
            return report.timeline(result.series_mbps)
        return "\n\n".join(
            f"[{panel.combo}]\n" + report.timeline(panel.series)
            for panel in result.panels
        )
    if experiment_id == "fig3":
        return "\n\n".join(
            report.cdf_plot({c.label: c.samples for c in panel})
            for panel in (result.panel_a, result.panel_b, result.panel_c)
        )
    if experiment_id == "fig4":
        return report.cdf_plot(
            {c.network: c.rtt_ms for c in result.curves}, x_label="ms RTT"
        )
    if experiment_id == "fig9":
        return report.stacked_shares(
            [b.name for b in result.bars],
            [[b.very_low, b.low, b.medium, b.high] for b in result.bars],
            legend=["<20", "20-50", "50-100", ">100 Mbps"],
        )
    if experiment_id in ("fig5", "fig6", "fig7", "fig8", "fig10"):
        rows = result.rows()
        labels = [" ".join(str(c) for c in row[:-1]) for row in rows]
        values = []
        for row in rows:
            try:
                values.append(float(row[-1]))
            except (TypeError, ValueError):
                return None
        return report.bar_chart(labels, values)
    return None


if __name__ == "__main__":
    sys.exit(main())
