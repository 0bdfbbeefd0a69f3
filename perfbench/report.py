"""Run the benchmark over several seeds, print its metrics, compare two runs.

    python3 perfbench/report.py run [--seeds 1-10] [--workloads fuzz,query] [--out FILE]
    python3 perfbench/report.py compare BASE.json CHANGE.json

``run`` calls ``perfbench/run.py`` once per workload and seed, prints
every end-to-end metric by name and unit with one row per workload
(median over seeds, and the spread: quartile distance over median), and
writes the result set with the seeds, Python version, CPU count and git
commit.  ``compare`` prints each side's median and quartiles per metric
and workload and flags a metric as unresolved when either side spreads
wider than the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def run_one(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, exit=proc.returncode, detail=json.loads(lines[-2])["detail"])
    return result


def by_workload(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for r in runs:
        table = out.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            table.setdefault(name, []).append(m["value"])
        table.setdefault("fail_ratio", []).append(r["failed"] / r["attempted"])
    return out


def print_table(result_set: dict) -> None:
    names = [m["name"] for m in SPEC["end_to_end"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    header = ["workload"] + [f"{n} [{units[n]}]" for n in names] + ["fail_ratio"]
    print("  ".join(f"{h:>22}" for h in header))
    for workload, table in by_workload(result_set["runs"]).items():
        cells = [workload]
        for name in names:
            values = table[name]
            cells.append(f"{quartiles(values)[1]:.4g} ±{spread(values):.3f}")
        cells.append(f"{max(table['fail_ratio']):.3g}")
        print("  ".join(f"{c:>22}" for c in cells))
    meta = result_set["meta"]
    print(f"# seeds {meta['seeds']}  python {meta['python']}  nproc {meta['nproc']}  "
          f"commit {meta['commit']}  (cells: median ±spread over seeds)")


def cmd_run(args) -> int:
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs = [run_one(w, s, args.seconds) for w in workloads for s in seeds]
    result_set = {
        "meta": {"seeds": seeds, "seconds": args.seconds, "python": platform.python_version(),
                 "nproc": os.cpu_count(), "commit": git_commit()},
        "runs": runs,
    }
    out = Path(args.out or ROOT / ".perfbench" / "results" / f"{result_set['meta']['commit'][:12]}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result_set, indent=1))
    print_table(result_set)
    print(f"# written to {out}")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


def cmd_compare(args) -> int:
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    a, b = by_workload(base["runs"]), by_workload(change["runs"])
    print(f"# base {base['meta']['commit']}  change {change['meta']['commit']}")
    print(f"{'workload':>8} {'metric':>12} {'base q1/med/q3':>32} {'change q1/med/q3':>32} {'delta':>8}  verdict")
    worse_any = False
    for workload in a:
        if workload not in b:
            continue
        for name, m in BOUNDS.items():
            va, vb = a[workload][name], b[workload][name]
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1 if m["better"] == "lower" else -1
            rel = (qb[1] - qa[1]) / qa[1]
            better_all = (max(vb) < min(va)) if sign == 1 else (min(vb) > max(va))
            if max(spread(va), spread(vb)) > m["bound"] and not better_all:
                verdict = "unresolved"
            elif sign * rel > m["bound"]:
                verdict, worse_any = "WORSE", True
            else:
                verdict = "ok"
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"{workload:>8} {name:>12} {fa:>32} {fb:>32} {rel:>+8.3f}  {verdict}")
    return 1 if worse_any else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="greenseq benchmark report")
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every workload over several seeds")
    p.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "3,5,8"')
    p.add_argument("--workloads", help="comma list (default: all)")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out", help="result file (default .perfbench/results/<commit>.json)")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("change")
    p.set_defaults(fn=cmd_compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
