"""Command-line surface.

Every ``cmd_*(q, args)`` takes the parsed quiver (a list for ``verify``)
and returns ``(lines, payload)``, the human output and its JSON form.
:func:`main` alone parses ``--quiver``, prints the payload under
``--json`` or else the lines, and maps errors to exit codes.

Exit codes: 0 on success, 1 on domain, input and file errors (JSON on
stderr) and on a ``verify`` mismatch, 2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
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
    except (json.JSONDecodeError, RecursionError) as exc:  # not JSON, or nested too deeply
        raise InvalidCharge(f"charge is not readable JSON: {exc}") from None
    return charge_from_json(q, data)


def _module_rows(payload):
    """The lines of a module list with slopes, read off its payload."""
    return [f"M({r['i']},{r['j']})  slope {r['slope']}" for r in payload["modules"]], payload


def cmd_quiver(q, args):
    payload = q.to_json()
    lines = [f"{q.label()}  n={q.n}"]
    if q.is_cyclic:
        payload.update({"a": q.a, "b": q.b})
        lines[0] += f"  a={q.a} b={q.b}"
    return lines, payload


def cmd_stable_set(q, args):
    [(_, rows)] = halves(_charge_arg(q, args.charge), include_semistable=args.semistable)
    return _module_rows({
        "modules": [{"i": m.i, "j": m.j, "slope": str(s)} for m, s in rows],
        "ordered": False,
    })


def cmd_mgs(q, args):
    return _module_rows(mgs(_charge_arg(q, args.charge)).to_json())


def cmd_maxsets(q, args):
    rows = enumerate_max_sets(q)
    payload = [{**d.to_json(), "class": cid} for d, cid in rows]
    lines = [f"max length {max_mgs_length(q)}; {len(rows)} descriptors"]
    for d, cid in rows:
        mods = " ".join(f"{m.i}{m.j}" if m.j < 10 else f"({m.i},{m.j})"
                        for m in modules_sorted(d.modules))
        lines.append(f"S({d.k},{d.l})  class {cid}  [{mods}]")
    classes = len({cid for _, cid in rows})
    lines.append(f"{classes} distinct sets")
    return lines, {"descriptors": payload, "classes": classes, "max_length": max_mgs_length(q)}


def cmd_linearity(q, args):
    verdict = is_linear_set(q, args.k, args.l)
    lines = [
        f"S({args.k},{args.l}) is {'linear' if verdict.linear else 'nonlinear'}"
        + (f" ({verdict.satisfied_condition})" if verdict.satisfied_condition else "")
        + (f" witness {verdict.pattern_witness}" if verdict.pattern_witness else "")
    ]
    return lines, verdict.to_json()


def cmd_witness(q, args):
    kind = args.kind
    if kind == "auto":
        kind = "linear" if is_linear_set(q, args.k, args.l).linear else "spliced"
    build = witness_linear if kind == "linear" else witness_spliced
    parts = halves(build(q, args.k, args.l))
    charges = [Z.to_json() for Z, _ in parts]
    count = sum(len(members) for _, members in parts)
    payload = {"kind": kind, "Z": charges[0], "Zprime": charges[1] if len(charges) > 1 else None,
               "verified": True, "stable_count": count}
    return [f"{kind} witness, {count} stable modules"] + [json.dumps(c) for c in charges], payload


def cmd_standard_charge(q, args):
    """``reineke`` or ``dn-charge``: a standard charge and its stable count."""
    reineke = args.command == "reineke"
    Z = reineke_charge(q) if reineke else dn_charge(q, args.k)
    count = len(stable_set(Z))
    head = f"all {count} modules stable" if reineke else f"stable set S({args.k}), {count} modules"
    return [head, json.dumps(Z.to_json())], {"Z": Z.to_json(), "stable_count": count,
                                             "verified": True}


def cmd_collapse(q, args):
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
    return lines, payload


def cmd_render(q, args):
    target = _charge_arg(q, args.charge)
    if args.charge_prime:
        target = SplicedPath(target, _charge_arg(q, args.charge_prime))
    render = render_chord_svg if args.mode == "chord" else render_wire_svg
    svg = render(target, window=args.window)
    if not args.output:
        # the document as one block; its closing newline is the printed one
        return [svg.removesuffix("\n")], None
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return [args.output], None


def _fuzz_chunk(task):
    return fuzz_quiver(*task)


def cmd_verify(quivers, args):
    for flag, value in (("--trials", args.trials), ("--jobs", args.jobs or 0)):
        if value < 0:
            raise ValueError(f"{flag} must not be negative, got {value}")
    if args.max_denominator < 1:
        raise ValueError(f"--max-denominator must be positive, got {args.max_denominator}")
    # a pool forks all its workers up front, so never more than there are trials
    jobs = max(1, min(args.jobs or 1, args.trials))
    chunk = max(1, args.trials // jobs)
    tasks = [
        (q, min(chunk, args.trials - s), args.seed, args.max_denominator, s)
        for q in quivers
        for s in range(0, args.trials, chunk)
    ]
    if jobs > 1:
        # imported here: the process pool pulls in multiprocessing, about
        # 2 MB that no other command needs
        from concurrent.futures import ProcessPoolExecutor

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
    lines = [f"{args.trials} trials x {len(quivers)} quiver(s): {len(mismatches)} mismatches"]
    return lines + [json.dumps(bad, sort_keys=True) for bad in mismatches], payload


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and kept (parsing never mutates it)."""
    ap = argparse.ArgumentParser(prog="greenseq",
                                 description="stability conditions and maximal green sequences")
    ap.add_argument("--version", action="version", version=f"greenseq {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, summary, *ints, json_flag=True, **quiver):
        """A subcommand with ``--quiver`` (further keywords in ``quiver``),
        ``--json`` unless ``json_flag`` is false, and required integers ``ints``."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn, json=False)
        p.add_argument("--quiver", required=True, **quiver)
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON")
        for flag in ints:
            p.add_argument(flag, type=int, required=True)
        return p

    add("quiver", cmd_quiver, "parse and describe a quiver")

    p = add("stable-set", cmd_stable_set, "stable modules of a charge")
    p.add_argument("--charge", required=True, help='JSON {"a":[...],"b":[...]}')
    p.add_argument("--semistable", action="store_true",
                   help="include strictly semistable modules")

    p = add("mgs", cmd_mgs, "maximal green sequence of a generic charge")
    p.add_argument("--charge", required=True)

    add("maxsets", cmd_maxsets, "enumerate the maximal stable sets S(k,l)")
    add("linearity", cmd_linearity, "decide linearity of S(k,l)", "--k", "--l")

    p = add("witness", cmd_witness, "construct a verified witness for S(k,l)", "--k", "--l")
    p.add_argument("--kind", choices=["auto", "linear", "spliced"], default="auto")

    add("reineke", cmd_standard_charge, "standard charge making all A_n modules stable")
    add("dn-charge", cmd_standard_charge, "standard charge with stable set S(k) on a cycle",
        "--k")

    p = add("collapse", cmd_collapse, "collapse arrows and project S(k,l)")
    p.add_argument("--arrows", required=True, help='comma list, e.g. "1,4"')
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)

    p = add("render", cmd_render, "emit a chord or wire diagram as SVG", json_flag=False)
    # "-<digit>..." and "-.<digit>..." are values, as on Python >= 3.13: "-1/2" is no option
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("mode", choices=["chord", "wire"])
    p.add_argument("--charge", required=True)
    p.add_argument("--charge-prime", help="second charge of a spliced path")
    p.add_argument("-o", "--output")
    p.add_argument("--window", nargs=2, type=str, metavar=("T0", "T1"))

    p = add("verify", cmd_verify, "criterion-equivalence fuzz",
            action="append", help="repeatable quiver spec")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-denominator", type=int, default=64)
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel workers (default 1; at most one per trial)")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if isinstance(args.quiver, list):  # verify repeats --quiver
            q = [parse_quiver(spec) for spec in args.quiver]
        else:
            q = parse_quiver(args.quiver)
        lines, payload = args.fn(q, args)
        if args.json:
            lines = [json.dumps(payload, sort_keys=True)]
        sys.stdout.writelines(f"{line}\n" for line in lines)
        return 1 if args.command == "verify" and payload["mismatches"] else 0
    except GreenseqError as err:
        error = err.payload()
    except ValueError as err:
        error = {"error": "value-error", "message": str(err)}
    except OSError as err:
        error = {"error": "os-error", "message": str(err)}
    sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
