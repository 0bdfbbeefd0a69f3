"""Command-line surface.

Exit codes: 0 on success, 1 on domain, input and file errors (JSON on
stderr), 2 on usage errors (argparse).  ``--json`` swaps the human
tables for the JSON forms used everywhere else in the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache

from . import __version__
from .charges import charge_from_json
from .collapse import collapse, project_set
from .errors import GreenseqError, InvalidCharge
from .linearity import (
    dn_charge,
    is_linear_set,
    reineke_charge,
    witness_linear,
    witness_spliced,
)
from .maxsets import build_Skl, enumerate_max_sets, max_mgs_length
from .quivers import parse_quiver
from .render import render_chord_svg, render_wire_svg
from .stability import SplicedPath, fuzz_quiver, halves, mgs, modules_sorted, stable_set


def _charge_arg(q, text: str):
    try:
        data = json.loads(text)
    except RecursionError:
        raise InvalidCharge("charge JSON is nested too deeply") from None
    return charge_from_json(q, data)


def _emit(args, human_lines, payload) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _module_row(m, s=None) -> str:
    return f"M({m.i},{m.j})" + (f"  slope {s}" if s is not None else "")


def cmd_quiver(args) -> int:
    q = parse_quiver(args.quiver)
    payload = q.to_json()
    lines = [f"{q.label()}  n={q.n}"]
    if q.is_cyclic:
        payload.update({"a": q.a, "b": q.b})
        lines[0] += f"  a={q.a} b={q.b}"
    _emit(args, lines, payload)
    return 0


def cmd_stable_set(args) -> int:
    q = parse_quiver(args.quiver)
    Z = _charge_arg(q, args.charge)
    [(_, rows)] = halves(Z, include_semistable=args.semistable)
    payload = {
        "modules": [{"i": m.i, "j": m.j, "slope": str(s)} for m, s in rows],
        "ordered": False,
    }
    _emit(args, [_module_row(m, s) for m, s in rows], payload)
    return 0


def cmd_mgs(args) -> int:
    q = parse_quiver(args.quiver)
    Z = _charge_arg(q, args.charge)
    seq = mgs(Z)
    _emit(args, [_module_row(m, s) for m, s in seq], seq.to_json())
    return 0


def cmd_maxsets(args) -> int:
    q = parse_quiver(args.quiver)
    rows = enumerate_max_sets(q)
    payload = []
    lines = [f"max length {max_mgs_length(q)}; {len(rows)} descriptors"]
    for d, cid in rows:
        entry = d.to_json()
        entry["class"] = cid
        payload.append(entry)
        mods = " ".join(f"{m.i}{m.j}" if m.j < 10 else f"({m.i},{m.j})"
                        for m in modules_sorted(d.modules))
        lines.append(f"S({d.k},{d.l})  class {cid}  [{mods}]")
    classes = len({cid for _, cid in rows})
    lines.append(f"{classes} distinct sets")
    _emit(args, lines, {"descriptors": payload, "classes": classes,
                        "max_length": max_mgs_length(q)})
    return 0


def cmd_linearity(args) -> int:
    q = parse_quiver(args.quiver)
    verdict = is_linear_set(q, args.k, args.l)
    lines = [
        f"S({args.k},{args.l}) is {'linear' if verdict.linear else 'nonlinear'}"
        + (f" ({verdict.satisfied_condition})" if verdict.satisfied_condition else "")
        + (f" witness {verdict.pattern_witness}" if verdict.pattern_witness else "")
    ]
    _emit(args, lines, verdict.to_json())
    return 0


def cmd_witness(args) -> int:
    q = parse_quiver(args.quiver)
    kind = args.kind
    if kind == "auto":
        kind = "linear" if is_linear_set(q, args.k, args.l).linear else "spliced"
    build = witness_linear if kind == "linear" else witness_spliced
    parts = halves(build(q, args.k, args.l))
    charges = [Z.to_json() for Z, _ in parts]
    count = sum(len(members) for _, members in parts)
    payload = {"kind": kind, "Z": charges[0], "Zprime": charges[1] if len(charges) > 1 else None,
               "verified": True, "stable_count": count}
    lines = [f"{kind} witness, {count} stable modules"] + [json.dumps(c) for c in charges]
    _emit(args, lines, payload)
    return 0


def cmd_reineke(args) -> int:
    q = parse_quiver(args.quiver)
    Z = reineke_charge(q)
    count = len(stable_set(Z))
    _emit(args, [f"all {count} modules stable", json.dumps(Z.to_json())],
          {"Z": Z.to_json(), "stable_count": count, "verified": True})
    return 0


def cmd_dn_charge(args) -> int:
    q = parse_quiver(args.quiver)
    Z = dn_charge(q, args.k)
    count = len(stable_set(Z))
    _emit(args, [f"stable set S({args.k}), {count} modules", json.dumps(Z.to_json())],
          {"Z": Z.to_json(), "stable_count": count, "verified": True})
    return 0


def cmd_collapse(args) -> int:
    q = parse_quiver(args.quiver)
    if (args.k is None) != (args.l is None):
        raise ValueError("collapse projects S(k,l) only when given both --k and --l")
    arrows = [int(x) for x in args.arrows.split(",") if x.strip()]
    p = collapse(q, arrows)
    payload = p.to_json()
    lines = [f"{q.label()} --{sorted(arrows)}--> {p.target.label()}"]
    if args.k is not None:
        image = project_set(p, build_Skl(q, args.k, args.l).modules)
        payload["projected_Skl"] = [m.to_json() for m in modules_sorted(image)]
        lines.append("projected S(k,l): " +
                     " ".join(f"M({m.i},{m.j})" for m in modules_sorted(image)))
    _emit(args, lines, payload)
    return 0


def cmd_render(args) -> int:
    q = parse_quiver(args.quiver)
    Z = _charge_arg(q, args.charge)
    target = Z
    if args.charge_prime:
        target = SplicedPath(Z, _charge_arg(q, args.charge_prime))
    render = render_chord_svg if args.mode == "chord" else render_wire_svg
    svg = render(target, window=args.window)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(args.output)
    else:
        sys.stdout.write(svg)
    return 0


def _fuzz_chunk(task):
    return fuzz_quiver(*task)


def cmd_verify(args) -> int:
    quivers = [parse_quiver(spec) for spec in args.quiver]
    # a pool forks all its workers up front, so never more than there are trials
    jobs = max(1, min(args.jobs or 1, args.trials))
    chunk = max(1, args.trials // jobs)
    tasks = [
        (q, min(chunk, args.trials - s), args.seed, args.max_denominator, s)
        for q in quivers
        for s in range(0, args.trials, chunk)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_fuzz_chunk, tasks))
    else:
        parts = map(_fuzz_chunk, tasks)
    mismatches = [bad for part in parts for bad in part]
    mismatches.sort(key=lambda m: (m.get("trial", 0), m["module"]["i"], m["module"]["j"]))
    payload = {
        "quivers": list(args.quiver),
        "trials": args.trials,
        "seed": args.seed,
        "max_denominator": args.max_denominator,
        "mismatches": mismatches,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{args.trials} trials x {len(args.quiver)} quiver(s): "
              f"{len(mismatches)} mismatches")
        for bad in mismatches:
            print(json.dumps(bad, sort_keys=True))
    return 0 if not mismatches else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and kept (parsing never mutates it)."""
    ap = argparse.ArgumentParser(prog="greenseq",
                                 description="stability conditions and maximal green sequences")
    ap.add_argument("--version", action="version", version=f"greenseq {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("quiver", cmd_quiver, help="parse and describe a quiver")
    p.add_argument("--quiver", required=True)

    p = add("stable-set", cmd_stable_set, help="stable modules of a charge")
    p.add_argument("--quiver", required=True)
    p.add_argument("--charge", required=True, help='JSON {"a":[...],"b":[...]}')
    p.add_argument("--semistable", action="store_true",
                   help="include strictly semistable modules")

    p = add("mgs", cmd_mgs, help="maximal green sequence of a generic charge")
    p.add_argument("--quiver", required=True)
    p.add_argument("--charge", required=True)

    p = add("maxsets", cmd_maxsets, help="enumerate the maximal stable sets S(k,l)")
    p.add_argument("--quiver", required=True)

    p = add("linearity", cmd_linearity, help="decide linearity of S(k,l)")
    p.add_argument("--quiver", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = add("witness", cmd_witness, help="construct a verified witness for S(k,l)")
    p.add_argument("--quiver", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kind", choices=["auto", "linear", "spliced"], default="auto")

    p = add("reineke", cmd_reineke, help="standard charge making all A_n modules stable")
    p.add_argument("--quiver", required=True)

    p = add("dn-charge", cmd_dn_charge, help="standard charge with stable set S(k) on a cycle")
    p.add_argument("--quiver", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("collapse", cmd_collapse, help="collapse arrows and project S(k,l)")
    p.add_argument("--quiver", required=True)
    p.add_argument("--arrows", required=True, help='comma list, e.g. "1,4"')
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)

    p = add("render", cmd_render, help="emit a chord or wire diagram as SVG")
    p.add_argument("mode", choices=["chord", "wire"])
    p.add_argument("--quiver", required=True)
    p.add_argument("--charge", required=True)
    p.add_argument("--charge-prime", help="second charge of a spliced path")
    p.add_argument("-o", "--output")
    p.add_argument("--window", nargs=2, type=str, metavar=("T0", "T1"))

    p = add("verify", cmd_verify, help="criterion-equivalence fuzz")
    p.add_argument("--quiver", action="append", required=True,
                   help="repeatable quiver spec")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-denominator", type=int, default=64)
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel workers (default 1; at most one per trial)")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GreenseqError as err:
        sys.stderr.write(json.dumps(err.payload(), sort_keys=True) + "\n")
        return 1
    except ValueError as err:
        sys.stderr.write(json.dumps({"error": "value-error", "message": str(err)}) + "\n")
        return 1
    except OSError as err:
        sys.stderr.write(json.dumps({"error": "os-error", "message": str(err)}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
