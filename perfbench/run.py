"""The repository's benchmark: one workload, one seed, one measured run.

Usage, from the repository root::

    python3 perfbench/run.py --workload live_serve --seed 1 --seconds 30 --trace 0

Each workload runs the same closed-loop cycle of user operations (see
``session.py``) with one client thread that waits for every reply; the
workloads differ in corpus shape (see ``inputs.py`` and ``NOTES.md``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics from spans recorded around the calls into each
layer.  The last line of standard output is the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A detailed report (corpus manifest, host-speed probe, sample counts and
tail percentiles, per-layer self times, spans) is written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Seconds of measurement per run when ``--seconds`` is not given.
DEFAULT_SECONDS = 30
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: The end-to-end metrics: name -> (unit, is a timing).
END_TO_END = {
    "setup_s": ("s", True),
    "assess_sources_s": ("s", True),
    "assess_contributors_s": ("s", True),
    "fresh_read_ms": ("ms", True),
    "search_ms": ("ms", True),
    "write_ms": ("ms", True),
    "checkpoint_s": ("s", True),
    "checkpoint_stall_ms": ("ms", True),
    "restart_s": ("s", True),
    "snapshot_bytes_per_post": ("B", False),
}

#: Root operations of a cycle (span names) and their end-to-end samples.
#: The sharded operations of traced runs have none: they feed only the
#: ``sharding.*`` per-layer metrics.
SHARDED_OPERATIONS = ("shard_read", "shard_search")
OPERATIONS = {
    "assess_sources": "assess_sources_s",
    "assess_contributors": "assess_contributors_s",
    "write": "write_ms",
    "fresh_read": "fresh_read_ms",
    "search": "search_ms",
    "checkpoint": "checkpoint_s",
    "restart": "restart_s",
}

#: Per-layer span metrics: name -> (root operation, span name, unit, scale, per).
#: The value is the span name's self time inside one root operation,
#: divided by the burst size / query count / source count where ``per``
#: says so, and the median is taken over the traced operations.
LAYER_SPANS = {
    "sources.generate_s": ("setup", "sources.generate", "s", 1.0, None),
    "sources.crawl_s": ("assess_sources", "sources.crawl", "s", 1.0, None),
    "sources.webstats_s": ("assess_sources", "sources.webstats", "s", 1.0, None),
    "sources.community_crawl_s": ("assess_contributors", "sources.community_crawl", "s", 1.0, None),
    "sources.mutate_ms": ("write", "sources.mutate", "ms", 1000.0, "burst"),
    "core.raw_measures_s": ("assess_sources", "core.raw_measures", "s", 1.0, None),
    "core.fit_score_rank_s": ("assess_sources", "core.fit_score_rank", "s", 1.0, None),
    "core.contributor_assess_ms": ("assess_contributors", "core.contributor_assess", "ms", 1000.0, "source"),
    "core.patch_ms": ("fresh_read", "core.patch", "ms", 1000.0, None),
    "core.contributor_patch_ms": ("fresh_read", "core.contributor_patch", "ms", 1000.0, None),
    "core.rank_read_ms": ("fresh_read", "core.rank_read", "ms", 1000.0, None),
    "search.index_build_s": ("setup", "search.index_build", "s", 1.0, None),
    "search.patch_ms": ("fresh_read", "search.patch", "ms", 1000.0, None),
    "search.query_ms": ("search", "search.query", "ms", 1000.0, "query"),
    "serving.flush_ms": ("fresh_read", "serving.flush", "ms", 1000.0, None),
    "persistence.journal_append_ms": ("write", "persistence.journal_append", "ms", 1000.0, "burst"),
    "persistence.checkpoint_s": ("checkpoint", "persistence.checkpoint", "s", 1.0, None),
    "persistence.recover_s": ("restart", "persistence.recover", "s", 1.0, None),
    "persistence.restore_stack_s": ("restart", "persistence.restore_stack", "s", 1.0, None),
    "persistence.replay_ms": ("restart", "persistence.replay", "ms", 1000.0, None),
    "sharding.flush_ms": ("shard_read", "sharding.flush", "ms", 1000.0, None),
    "sharding.rank_top_ms": ("shard_read", "sharding.rank_top", "ms", 1000.0, None),
    "sharding.search_ms": ("shard_search", "sharding.search", "ms", 1000.0, "query"),
}

#: Per-layer counters sampled in traced cycles: name -> unit.
LAYER_COUNTS = {
    "core.sources_remeasured_per_burst": "count",
    "core.contributors_remeasured_per_burst": "count",
    "core.normalizer_fits_per_burst": "count",
    "search.sources_reindexed_per_burst": "count",
    "search.candidates_scored_per_query": "count",
    "search.result_cache_hit_ratio": "ratio",
    "serving.patches_per_burst": "count",
    "serving.skips_per_burst": "count",
    "persistence.journal_bytes_per_mutation": "B",
    "persistence.snapshot_bytes": "B",
    "sharding.worker_busy_ms_per_read": "ms",
    "sharding.wire_bytes_per_read": "B",
}

#: Which timing definition the gated metrics use (see NOTES.md for the
#: measurements that decided it):
#:   "raw"    — the median of the wall-clock samples;
#:   "scaled" — the median of the samples, each multiplied by
#:              REFERENCE_PROBE_MS over the mean of the host-speed probes
#:              taken just before and just after it.
TIMING = "scaled"
DEFINITIONS = ("raw", "scaled")
#: Reference probe time of the scaled definition, in ms.
REFERENCE_PROBE_MS = 5.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="a small corpus, one set-up and one measured cycle (for the self-tests)",
    )
    return parser.parse_args(argv)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": median(ordered), "max": ordered[-1] if n else None}
    if n >= 20:
        percentile = 1.0 - 10.0 / n
        summary["tail_percentile"] = round(percentile * 100.0, 1)
        summary["tail"] = ordered[min(n - 1, int(percentile * n))]
    return summary


def timing_values(
    rec, metric: str, traced: bool | None = None, definition: str = TIMING
) -> list[float]:
    """The samples of ``metric`` under a timing definition (see TIMING)."""
    samples = [s for s in rec.samples.get(metric, []) if traced is None or s[2] == traced]
    if not END_TO_END.get(metric, ("", True))[1] or definition == "raw":
        return [s[0] for s in samples]
    probes = rec.probes
    values = []
    for value, index, _ in samples:
        around = [probes[i] for i in (index, index + 1) if 0 <= i < len(probes)]
        values.append(value * REFERENCE_PROBE_MS * len(around) / sum(around))
    return values


def layer_metrics(tracer, rec, shape, traced_cycles: int) -> tuple[dict, dict]:
    """Per-layer metrics plus the detail tables (self times, coverage, overhead)."""
    from inputs import BURST
    from spans import self_times_by_layer, self_times_by_name, uncovered_share

    by_root: dict[str, list] = {}
    for root in tracer.roots():
        by_root.setdefault(root.name, []).append(root)
    divisors = {
        None: 1.0,
        "burst": BURST,
        "query": shape.searches,
        "source": median(rec.counters.get("core.contributor_sources", [])) or 1.0,
    }

    metrics: dict[str, dict] = {}
    # Span times carry no probe of their own: they are scaled by the run's
    # median probe.
    factor = 1.0 if TIMING == "raw" else REFERENCE_PROBE_MS / median(rec.probes)
    for name, (root_name, span_name, unit, scale, per) in LAYER_SPANS.items():
        values = []
        for root in by_root.get(root_name, []):
            total = self_times_by_name(root).get(span_name)
            if total is not None:
                values.append(total * scale * factor / divisors[per])
        metrics[name] = {"value": median(values), "unit": unit}
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = {"value": median(rec.counters.get(name, [])), "unit": unit}
    metrics["host.calibration_ms"] = {"value": median(rec.probes), "unit": "ms"}

    detail: dict[str, dict] = {}
    # Every layer's self time over one traced cycle of the workload's own
    # operations: the layer that dominates the workload's traffic.
    cycle: dict[str, float] = {}
    for root_name in OPERATIONS:
        for root in by_root.get(root_name, []):
            for layer, seconds in self_times_by_layer(root).items():
                cycle[layer] = cycle.get(layer, 0.0) + seconds * 1000.0 / max(1, traced_cycles)
    detail["cycle_ms_by_layer"] = dict(sorted(cycle.items(), key=lambda item: -item[1]))
    for root_name in (*OPERATIONS, *SHARDED_OPERATIONS):
        roots = by_root.get(root_name, [])
        layers: dict[str, list[float]] = {}
        for root in roots:
            for layer, seconds in self_times_by_layer(root).items():
                layers.setdefault(layer, []).append(seconds * 1000.0)
        uncovered = median([uncovered_share(root) for root in roots]) * 100.0
        detail[root_name] = {
            "traced_ops": len(roots),
            "self_ms_by_layer": {k: median(v) for k, v in sorted(layers.items())},
            "uncovered_pct": uncovered,
        }
        metric = OPERATIONS.get(root_name)
        if metric is None:
            continue
        traced_values = timing_values(rec, metric, traced=True)
        plain_values = timing_values(rec, metric, traced=False)
        overhead = (
            (median(traced_values) - median(plain_values)) / median(plain_values) * 100.0
            if traced_values and plain_values and median(plain_values) > 0
            else 0.0
        )
        metrics[f"trace.uncovered.{root_name}"] = {"value": uncovered, "unit": "%"}
        metrics[f"trace.overhead.{root_name}"] = {"value": overhead, "unit": "%"}
        detail[root_name] |= {
            "traced_median": median(traced_values),
            "untraced_median": median(plain_values),
            "overhead_pct": overhead,
        }
    return metrics, detail


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))

    from inputs import WORKLOADS, manifest, plan_corpus
    from session import Recorder, Session, now
    from spans import Tracer, dump

    shape = WORKLOADS.get(args.workload)
    if shape is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_reps = SETUP_REPS
    seconds = args.seconds
    if args.tiny:
        shape = dataclasses.replace(
            shape, sources=max(shape.hot + 3, shape.sources // 4), posts=shape.posts // 4,
            oracle_every=1,
        )
        setup_reps = 1
        seconds = 0.0

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    tracer = Tracer() if args.trace else None
    session = None
    cycles = traced_cycles = 0
    try:
        # The sources and their seeds are chosen once, untimed; every set-up
        # then generates and builds from the same plan.
        plan = plan_corpus(shape, args.seed)
        for index in range(setup_reps):
            if session is not None:
                session.close()
            gc.collect()
            session = Session(shape, args.seed, plan, workdir, rec, tracer)
            rec.probe()
            with session.tracer.span("setup"):
                start = now()
                session.build(index)
                rec.add("setup_s", now() - start)
        corpus_manifest = manifest(shape, args.seed, session.corpus)
        print(json.dumps({"manifest": corpus_manifest}), flush=True)
        session.instrument()
        if tracer is not None:
            tracer.active = False
            session.start_shards()
        # One warm-up cycle: lazy imports and first-use caches fill here, and
        # its samples are dropped; its oracle checks still count.
        session.cycle()
        rec.samples = {"setup_s": rec.samples["setup_s"]}
        rec.counters = {}
        gc.collect()
        gc.freeze()

        deadline = now() + seconds
        while True:
            if tracer is not None:
                tracer.active = cycles % 2 == 0
                rec.traced = tracer.active
                traced_cycles += tracer.active
            session.cycle()
            cycles += 1
            if now() >= deadline:
                break
    except Exception as exc:  # noqa: BLE001 - any failure is reported, not a result
        import traceback

        traceback.print_exc()
        print(f"error: the {args.workload} run failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        if session is not None:
            session.close()
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    required = {"cold_rank", "live_rank", "live_search", "restart_corpus", "restart_rank",
                "restart_search", "cold_contributors", "live_contributors",
                "restart_contributors"}
    if args.trace:
        required |= {"sharded_rank", "sharded_search"}
    for kind in sorted(required - set(rec.checks)):
        rec.fail(f"oracle {kind} never ran")

    report = {
        "workload": shape.name,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "timing": TIMING,
        "cycles": cycles,
        "manifest": corpus_manifest,
        "host_probe_ms": tail(rec.probes) | {
            "quartiles": statistics.quantiles(rec.probes, n=4) if len(rec.probes) > 1 else None
        },
        "checks": rec.checks,
        "errors": rec.errors,
        "probes": rec.probes,
        "sample_values": {
            metric: [[value, index] for value, index, _ in rec.samples.get(metric, [])]
            for metric in END_TO_END
        },
        "samples": {
            metric: tail(timing_values(rec, metric, definition="raw"))
            | {definition: median(timing_values(rec, metric, definition=definition))
               for definition in DEFINITIONS}
            for metric in END_TO_END
        },
    }
    if args.trace:
        metrics, report["layers"] = layer_metrics(tracer, rec, shape, traced_cycles)
    else:
        metrics = {}
        for metric, (unit, _) in END_TO_END.items():
            metrics[metric] = {"value": median(timing_values(rec, metric)), "unit": unit}
    report["metrics"] = metrics
    tag = f"{shape.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        (out_dir / f"spans-{tag}.json").write_text(json.dumps(dump(tracer.spans)))
    print(json.dumps({k: report[k] for k in ("cycles", "host_probe_ms", "checks")}), flush=True)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
