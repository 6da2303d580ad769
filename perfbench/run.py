"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload insitu --seed 1 --seconds 15 --trace 0

Run it from the repository root.  The program under test is imported from
``src/``; the run fails with exit code 2, printing no result, when those
sources are missing.  ``--trace 0`` measures the end-to-end metrics with no
spans recorded; ``--trace 1`` runs the traced episode instead, prints the
per-layer metrics and writes the spans as Chrome trace-event JSON under
``.perfbench/``.  Scratch files live under ``.perfbench/`` too and are
removed before exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
SCRATCH = Path(".perfbench")
HASH_SEED = "0"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Dict and set layouts, and so their speed, follow the hash seed; fix it.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import metrics, stats
    from perfbench.spans import Recorder

    if args.workload not in metrics.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(metrics.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = importlib.import_module(f"perfbench.workloads.{args.workload}")
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_seconds: list[float] = []
    state = None
    try:
        for repeat in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            start = time.perf_counter()
            state = workload.setup(args.seed, workdir / f"setup-{repeat}")
            setup_seconds.append(time.perf_counter() - start)
        if args.trace:
            recorder = Recorder()
            outcome = workload.traced(state, recorder)
            recorder.write(SCRATCH / f"trace-{args.workload}-{args.seed}.json")
        else:
            outcome = workload.measure(state, args.seconds)
    finally:
        if state is not None:
            workload.close(state)
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = metrics.per_layer_values(outcome.metrics)
        units = metrics.PER_LAYER_UNITS
    else:
        values = {"setup_s": stats.median(setup_seconds), **outcome.metrics}
        units = metrics.END_TO_END_UNITS
        if set(values) != set(units):
            raise RuntimeError(f"end-to-end metrics {sorted(values)} do not match {sorted(units)}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print(f"perfbench: {args.workload} seed {args.seed}: {outcome.samples} timed units, set-ups "
          + " ".join(f"{seconds:.4f}" for seconds in setup_seconds), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
