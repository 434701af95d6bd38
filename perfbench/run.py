"""Benchmark entry point: one run of one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's inputs from
the seed (``inputs.py``), runs the measured rounds in a fresh process
(``experiment.py``), prints each metric with its unit and the run's
environment, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from the traced rounds, and the spans go to
``perfbench/_results/<workload>-seed<N>.trace.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, generate
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "_results"
WORK = HERE / "_work"
RUN_LIMIT_S = 170  # a run must end within 180 s, input generation included

END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "train_pairs_per_s": "pairs/s",
    "score_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
}


def child_environment() -> dict[str, str]:
    """The workload process's environment: src on the path, a fixed string hash
    seed, and one BLAS thread.

    The workloads' matrices are small, so BLAS threads would buy little; an
    idle BLAS worker spinning on the second CPU would slow the main thread
    whenever the two CPUs share a core, and make the timings depend on it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=int, default=1,
                        help="divide the input sizes by this (quick smoke runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "simxfer").is_dir():
        sys.stderr.write(f"run.py: no package source at {ROOT / 'src' / 'simxfer'}; "
                         "run from a checkout of the repository\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    if args.scale > 1:
        workload = workload.scaled(args.scale)
    tag = f"{workload.name}-seed{args.seed}"
    work = WORK / f"{tag}-{os.getpid()}"
    result_path = RESULTS / f"{tag}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "experiment.py"), "--workload", workload.name,
               "--inputs", str(work), "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_path),
               "--scale", str(args.scale)]
    if args.trace:
        command += ["--trace-file", str(RESULTS / f"{tag}.trace.jsonl")]
    try:
        generate(workload, args.seed, work)
        proc = subprocess.run(command, env=child_environment(), stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {workload.name} did not finish within {RUN_LIMIT_S} s\n")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(f"run.py: the workload process exited with {proc.returncode}\n")
        return proc.returncode if proc.returncode > 0 else 1

    result = json.loads(result_path.read_text(encoding="utf-8"))
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(f"workload {workload.name}  seed {args.seed}  rounds {result['rounds']}")
    for name, metric in metrics.items():
        print(f"  {name:26s} {metric['value']:14.6g} {metric['unit']}")
    if args.trace:
        print(f"trace overhead: {json.dumps(result['trace_overhead'])}")
        print(f"absent functions: {result['absent'] or 'none'}")
    print(f"environment: {json.dumps(result['environment'])}")
    for failure in result["check_failures"]:
        print(f"check failed: {failure}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
