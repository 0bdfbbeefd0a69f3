"""greenseq benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fuzz|query|witness|sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in a fresh worker process with one caller
in a closed loop (see ``worker.py``), on inputs made from ``--seed``.

``--trace 0`` prints the end-to-end metrics:

* ``ops_per_s``, ``op_p50_ms``, ``op_tail_ms``: throughput, median and
  tail latency of ``S`` seconds of ops.  Every op's wall time is scaled
  to a reference machine speed measured by a fixed probe run between
  ops, because the speed of a shared machine drifts by up to a third
  over seconds; the raw wall-clock figures are in the detail line.
  The probe runs between ops, so CPU work that the program leaves
  running between ops (threads, worker processes) slows the probe and
  is partly scaled away; compare the raw figures for such a change.
* ``setup_s``: median over several fresh worker processes of the time
  from the worker's first statement until ``greenseq`` is imported and
  the inputs are set up, scaled to reference speed the same way.
* ``peak_rss_mb``: peak resident memory of the worker.

``--trace 1`` prints the per-layer metrics of a traced run instead.
The line before the result is a ``detail`` object: tail percentile and
sample count, fail ratio, raw figures, Python version, CPU count.  The
exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("fuzz", "query", "witness", "sweep")
SETUP_SAMPLES = 31
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> tuple[list[float], str]:
    """Run one worker to its end; return its set-up times (scaled, raw)
    and its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{mode} worker ran past the deadline") from None
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    ready = lines[0].split() if lines else []
    if proc.returncode != 0 or ready[:1] != ["ready"]:
        raise WorkerFailed(f"{mode} worker failed (exit {proc.returncode})")
    return [float(v) for v in ready[1:]], lines[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="greenseq benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "greenseq" / "__init__.py").is_file():
        sys.stderr.write(f"no greenseq sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        if args.trace:
            _, line = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
            result = json.loads(line)
        else:
            # half the set-up samples before the run and half after, so
            # that their median spans the run's time
            setups = [spawn(args.workload, args.seed, args.seconds, "setup", deadline)[0]
                      for _ in range(SETUP_SAMPLES // 2)]
            setup, line = spawn(args.workload, args.seed, args.seconds, "run", deadline)
            setups.append(setup)
            setups += [spawn(args.workload, args.seed, args.seconds, "setup", deadline)[0]
                       for _ in range(SETUP_SAMPLES // 2)]
            result = json.loads(line)
            result["metrics"]["setup_s"] = {"value": statistics.median(s for s, _ in setups), "unit": "s"}
            result["detail"]["raw_setup_s"] = statistics.median(raw for _, raw in setups)
    except (WorkerFailed, json.JSONDecodeError) as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 3

    detail = result.pop("detail")
    detail["nproc"] = os.cpu_count()
    print(json.dumps({"detail": detail}))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
