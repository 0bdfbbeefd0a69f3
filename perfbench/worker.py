"""One workload process: set up, run a closed loop, print one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|run|trace

The process prints ``ready <scaled> <raw>`` once ``greenseq`` is
imported and the inputs are set up: its set-up time in seconds, scaled
to reference speed by probes run right after it, and as measured.
``setup`` mode exits there.  ``run`` mode times ops one after another, a single
caller with no think time, until ``S`` seconds have been spent inside
ops.  ``trace`` mode runs a fixed list of ops twice, untraced and then
traced, and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
#: Every per-layer metric a traced run reports, with its unit.  A
#: function a workload never calls reads 0.
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}

WARMUP_OPS = 8
#: Ops in one pass of a traced run.  Fixed, so that span counts of two
#: commits are counts over the same inputs.
TRACE_OPS = {"fuzz": 1200, "query": 240, "witness": 320, "sweep": 100}
#: Fuzz charges whose candidates time each stability criterion.
CRITERION_CHARGES = 200
#: A loop stops after this much wall time even if its ops are not done,
#: so that a run (at most two loops) always ends within its time limit.
WALL_LIMIT_S = 60.0
#: A speed probe runs after every PROBE_EVERY_NS of op time.  The
#: machine's speed drifts by up to a third over seconds (other tenants,
#: clock changes), so each op is scaled by the probes around it:
#: PROBE_WINDOW on each side, a few tenths of a second.
PROBE_EVERY_NS = 10_000_000
PROBE_WINDOW = 5
#: Probe time that defines reference speed (its median on an unloaded
#: 2-vCPU VM with Python 3.11.7); normalized times are in ms at that speed.
REFERENCE_PROBE_NS = 180_000
#: Probes run right after set-up, to scale set-up time like op time.
SETUP_PROBES = 50


class Loop:
    """Latencies and outcomes of ops run back to back, with the speed
    probes taken between them."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.probes: list[tuple[int, int]] = []  # (ops timed before it, probe ns)
        self.attempted = 0
        self.failed = 0

    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    def ops_per_s(self) -> float:
        return len(self.latencies_ns) / self.busy_s()

    def probe(self) -> None:
        # with the collector off, a collection of the program's heap is
        # never charged to the probe (it stays with the ops that caused it)
        gc.disable()
        t0 = perf_counter_ns()
        speed_probe()
        t1 = perf_counter_ns()
        gc.enable()
        self.probes.append((len(self.latencies_ns), t1 - t0))

    def normalized_ns(self) -> list[float]:
        """Each op's latency scaled to reference machine speed: times
        REFERENCE_PROBE_NS over the median of the probes around it."""
        probes = self.probes
        out = []
        lo = 0
        for k, lat in enumerate(self.latencies_ns):
            while lo + 1 < len(probes) and probes[lo + 1][0] <= k:
                lo += 1
            window = [p for _, p in probes[max(lo - PROBE_WINDOW, 0) : lo + PROBE_WINDOW + 1]]
            out.append(lat * REFERENCE_PROBE_NS / statistics.median(window))
        return out


def speed_probe() -> int:
    """Fixed pure-Python work (integer cross products and Fractions, the
    mix the library runs) whose time tracks the machine's current speed."""
    ys = [(i * 7919) % 127 - 63 for i in range(48)]
    xs = [i * 3 + (i * 31) % 5 for i in range(48)]
    acc = 0
    for i in range(48):
        yi, xi = ys[i], xs[i]
        for j in range(i + 1, min(i + 12, 48)):
            acc += (xs[j] - xi) * (ys[j] - yi) - (ys[j] - yi) * (xs[j] - xi)
    return acc + int(sum(Fraction(i, i + 2) for i in range(1, 24)))


def closed_loop(wl, inputs, budget_s=float("inf"), tracer=None, loop=None, timed=True) -> Loop:
    """Run ``wl.op`` on each input until the inputs or the op-time budget
    run out.  Each answer is checked after its op; an exception or a
    wrong answer counts as failed."""
    loop = loop or Loop()
    budget_ns = budget_s * 1e9
    busy = since_probe = 0
    wall_end = perf_counter() + WALL_LIMIT_S
    if timed:
        loop.probe()
    for k, inp in enumerate(inputs):
        if busy >= budget_ns or perf_counter() > wall_end:
            break
        if tracer is not None:
            tracer.current_op = k
        t0 = perf_counter_ns()
        try:
            out = wl.op(inp)
        except Exception as err:  # any unexpected exception is a failed op
            out = err
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.current_op = -1
        if timed:
            loop.latencies_ns.append(t1 - t0)
            busy += t1 - t0
            since_probe += t1 - t0
            if since_probe >= PROBE_EVERY_NS:
                loop.probe()
                since_probe = 0
        loop.attempted += 1
        if not _correct(wl, inp, out):
            loop.failed += 1
    if timed:
        loop.probe()
    return loop


def _correct(wl, inp, out) -> bool:
    if isinstance(out, Exception):
        ok = False
    else:
        try:
            ok = wl.check(inp, out)
        except Exception as err:  # a malformed answer is a wrong answer
            out, ok = err, False
    if not ok:
        detail = "".join(traceback.format_exception(out)) if isinstance(out, Exception) else ""
        sys.stderr.write(f"wrong answer on input {inp!r}\n{detail}")
    return ok


def tail(latencies: list[float], window: int) -> tuple[float, float, int]:
    """Latency at the highest percentile with 10 samples beyond it, that
    percentile, and the sample count.

    The run is cut into consecutive windows of ``window`` ops (a trailing
    part window is dropped); the tail is taken in each window and the
    median over windows is reported, so that one burst of interference
    moves one window's figure rather than the result.  A fixed window
    size keeps the percentile the same however many ops a machine runs.
    """
    n = len(latencies)
    windows = [latencies[s : s + window] for s in range(0, n - window + 1, window)] or [latencies]
    values, pcts = [], []
    for part in windows:
        part = sorted(part)
        rank = max(len(part) - 11, 0)
        values.append(part[rank])
        pcts.append(100.0 * (rank + 1) / len(part))
    return statistics.median(values), statistics.median(pcts), n


def end_to_end(loop: Loop, window: int) -> tuple[dict, dict]:
    """Metrics from normalized latencies; the raw wall-clock figures go
    to the detail.  ``window`` is the op count of a tail window."""
    norm = loop.normalized_ns()
    value, pct, n = tail(norm, window)
    metrics = {
        "ops_per_s": (n / (sum(norm) / 1e9), "op/s"),
        "op_p50_ms": (statistics.median(norm) / 1e6, "ms"),
        "op_tail_ms": (value / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "tail_percentile": pct,
        "samples": n,
        "fail_ratio": loop.failed / loop.attempted,
        "busy_s": loop.busy_s(),
        "raw_ops_per_s": loop.ops_per_s(),
        "raw_op_p50_ms": statistics.median(loop.latencies_ns) / 1e6,
        "raw_op_tail_ms": tail(loop.latencies_ns, window)[0] / 1e6,
        "probe_median_us": statistics.median(p for _, p in loop.probes) / 1e3,
        "probes": len(loop.probes),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# per-layer metrics


def criterion_ns_per_candidate(wl, inputs) -> dict[str, float]:
    """ns per candidate module of is_stable_{oracle,chord,wire}, timed
    over the candidates of the charges the fuzz trials draw."""
    import greenseq as gs

    fns = [("oracle", gs.is_stable_oracle), ("chord", gs.is_stable_chord), ("wire", gs.is_stable_wire)]
    total = dict.fromkeys((name for name, _ in fns), 0)
    count = 0
    for idx, (spec, start) in enumerate(inputs[:CRITERION_CHARGES]):
        q = gs.parse_quiver(spec)
        Z = gs.random_charge(q, gs.substream(wl.seed, start))
        mods = gs.candidate_modules(q)
        gs.is_stable_oracle(Z, mods[0])  # builds the integer context untimed
        for name, fn in fns[idx % 3 :] + fns[: idx % 3]:
            t0 = perf_counter_ns()
            for m in mods:
                fn(Z, m)
            total[name] += perf_counter_ns() - t0
        count += len(mods)
    return {f"stability.is_stable_{name}.ns_per_candidate": t / count for name, t in total.items()}


def layer_metrics(tracer, plain: Loop, traced: Loop, criteria: dict) -> dict:
    import reference as ref
    from tracer import PER_CANDIDATE

    n_ops = len(traced.latencies_ns)
    selfs = tracer.self_times()
    names = tracer.names
    calls = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    dur_ns = dict.fromkeys(names, 0)
    nongeneric = 0
    candidates = dict.fromkeys(names, 0)
    cand_count: dict[object, int] = {}
    top_ns = 0
    linear_attempts = 0
    sequences = generic = 0
    wl_idx = names.index("linearity.witness_linear")
    fin_idx = names.index("charges.is_finite")
    seq_ids = {names.index("stability.mgs"), names.index("stability.spliced_mgs")}
    for span, idx in enumerate(tracer.name_id):
        if tracer.op[span] < 0:
            continue  # called by an answer check, outside every op
        name = names[idx]
        dur = tracer.end[span] - tracer.start[span]
        calls[name] += 1
        self_ns[name] += selfs[span]
        dur_ns[name] += dur
        failed = span in tracer.errors
        nongeneric += tracer.errors.get(span) == "NonGeneric" and name == "stability.mgs"
        parent = tracer.parent[span]
        if parent < 0:
            top_ns += dur
            if idx in seq_ids:
                sequences += 1
                generic += not failed
        q = tracer.quivers.get(span)
        if q is not None and not failed:
            if q not in cand_count:
                cand_count[q] = len(ref.RefQuiver(q.label()).candidates())
            candidates[name] += cand_count[q]
        if idx == fin_idx:
            while parent >= 0 and tracer.name_id[parent] != wl_idx:
                parent = tracer.parent[parent]
            linear_attempts += parent >= 0

    def ratio(num, den):
        return num / den if den else 0.0

    out = dict.fromkeys(
        [
            "stability.is_stable_oracle.ns_per_candidate",
            "stability.is_stable_chord.ns_per_candidate",
            "stability.is_stable_wire.ns_per_candidate",
        ],
        0.0,
    )
    out.update(criteria)
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in PER_CANDIDATE:
        out[f"{name}.ns_per_candidate"] = ratio(self_ns[name], candidates[name])
    for name in ("stability.stable_set", "maxsets.build_Skl"):
        out[f"{name}.calls_per_op"] = ratio(calls[name], n_ops)
    out["charges.IntContext.us_per_call"] = ratio(dur_ns["charges.IntContext"] / 1e3, calls["charges.IntContext"])
    out["stability.mgs.nongeneric_ratio"] = ratio(nongeneric, calls["stability.mgs"])
    out["linearity.witness_linear.attempts_per_call"] = ratio(linear_attempts, calls["linearity.witness_linear"])
    out["linearity.witness.generic_ratio"] = ratio(generic, sequences)
    out["trace.overhead_ratio"] = sum(plain.normalized_ns()) / sum(traced.normalized_ns())
    out["trace.coverage"] = top_ns / sum(traced.latencies_ns)
    return {name: out[name] for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    args = ap.parse_args(argv)

    import greenseq.cli  # noqa: F401  (set-up includes the CLI import)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    warmup = list(islice(wl.inputs("warmup"), WARMUP_OPS))
    main_inputs = wl.inputs("main")
    setup_s = perf_counter() - STARTED
    speed = Loop()
    for _ in range(SETUP_PROBES):
        speed.probe()
    probe = statistics.median(p for _, p in speed.probes)
    print(f"ready {setup_s * REFERENCE_PROBE_NS / probe!r} {setup_s!r}", flush=True)
    if args.mode == "setup":
        return 0

    warm = closed_loop(wl, warmup, timed=False)
    detail = {"python": platform.python_version(), "workload": args.workload, "seed": args.seed}
    if args.mode == "run":
        loop = closed_loop(wl, main_inputs, budget_s=args.seconds, loop=warm)
        metrics, more = end_to_end(loop, wl.tail_window)
        detail.update(more)
        result = {
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    else:
        from tracer import Tracer

        inputs = list(islice(main_inputs, TRACE_OPS[args.workload]))
        plain = closed_loop(wl, inputs, loop=warm)
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(wl, inputs, tracer=tracer)
        finally:
            tracer.uninstall()
        criteria = criterion_ns_per_candidate(wl, inputs) if args.workload == "fuzz" else {}
        values = layer_metrics(tracer, plain, traced, criteria)
        out_dir = ROOT / ".perfbench" / "trace"
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(spans_path)
        detail.update({"ops": len(inputs), "spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT))})
        result = {
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "metrics": {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in values.items()},
        }
    result["detail"] = detail
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
