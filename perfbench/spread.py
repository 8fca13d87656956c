"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload live_serve --seeds 1-10 [--seconds 30]

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median of the runs and the distance between their first and
third quartiles as a share of that median (the figure the bounds in
``BENCHMARK.json`` are set against).  Beside the shipped figures it
prints the same spread under every timing definition a run's report
carries (raw and host-scaled; see ``run.py``), so the
definitions compare on the same runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The timing definitions each run's report carries (see run.py).
DEFINITIONS = ("raw", "scaled")


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / middle


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    gated: dict[str, list[float]] = {}
    other: dict[str, dict[str, list[float]]] = {}
    for seed in seeds(args.seeds):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        started = time.monotonic()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - started
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stdout[-2000:], completed.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        report = json.loads(
            (ROOT / ".perfbench" / f"report-{args.workload}-seed{seed}-trace{args.trace}.json")
            .read_text()
        )
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} cycles={report['cycles']} "
              f"probe={report['host_probe_ms']['median']:.2f}ms wall={wall:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            gated.setdefault(name, []).append(metric["value"])
            for definition in DEFINITIONS:
                value = report["samples"].get(name, {}).get(definition)
                if value is not None:
                    other.setdefault(definition, {}).setdefault(name, []).append(value)
    header = f"{'metric':36s} {'shipped':>11s} {'spread':>7s}"
    for definition in DEFINITIONS:
        header += f" {definition:>11s} {'spread':>7s}"
    print(header)
    for name, values in gated.items():
        middle, share = spread(values)
        line = f"{name:36s} {middle:11.5g} {share:7.1%}"
        for definition in DEFINITIONS:
            if name in other.get(definition, {}):
                d_middle, d_share = spread(other[definition][name])
                line += f" {d_middle:11.5g} {d_share:7.1%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
