"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that records spans and prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full result
file with an environment block, and the spans of a traced run, go to
``.perfbench_out/``.  ``--short`` is the harness self-check's brief mode.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-regen", "serve-fresh", "serve-hot")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--short", action="store_true",
                        help="brief self-check mode: one repetition each")
    parser.add_argument("--inject-wrong-reference", action="store_true",
                        dest="wrong_reference",
                        help="corrupt one reference answer (self-check)")
    opts = parser.parse_args(argv)
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    return opts


def _terminate(signum: int, _frame) -> None:
    # Unwind through every ``finally``, so the cluster workers this run
    # started are stopped and reaped before the process ends.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    opts = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "artifacts").is_dir():
        print(f"perfbench: no program to measure under {ROOT} "
              "(src/repro and artifacts/ are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common

    workload = importlib.import_module(
        "perfbench." + opts.workload.replace("-", "_")
    )
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    opts.out_dir = common.OUT_DIR / f"work-{tag}"
    shutil.rmtree(opts.out_dir, ignore_errors=True)
    opts.out_dir.mkdir(parents=True)
    started = time.perf_counter()
    steal = common.cpu_steal_s()
    try:
        outcome = workload.run(opts)
    finally:
        for path in opts.out_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
    metrics = outcome.per_layer if opts.trace else outcome.end_to_end
    line = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    result = {
        "workload": opts.workload, "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace, "short": opts.short,
        "environment": common.environment(),
        "wall_s": time.perf_counter() - started,
        "cpu_steal_s": (
            None if steal is None else common.cpu_steal_s() - steal
        ),
        **line, "info": outcome.info,
    }
    (opts.out_dir / "result.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for name, entry in outcome.info.items():
        if isinstance(entry, dict) and "value" in entry:
            print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}"
                  f"  (n={entry['samples']}, not gated)")
    print(f"{'ops_attempted':36s} {outcome.attempted:14d}")
    print(f"{'ops_failed':36s} {outcome.failed:14d}")
    print(json.dumps(line), flush=True)
    return 0 if outcome.correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
