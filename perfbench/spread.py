"""Run one workload over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--seconds 20] [--trace 0]

The spread is the distance between the first and third quartile as a share
of the median, the statistic ``BENCHMARK.json`` bounds.  Each end-to-end line
also shows the metric's bound and whether the spread is within it.  Run it
from the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import metrics, stats

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if completed.returncode:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
                         if not args.trace), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    for name, series in values.items():
        line = f"{name:48s} median {stats.median(series):<12.6g}"
        if len(series) >= 2 and stats.median(series):
            spread = stats.iqr_share(series)
            line += f" spread {spread:.3f}"
            if name in bounds:
                line += f" bound {bounds[name]:.2f} {'ok' if spread <= bounds[name] else 'OVER'}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
