"""Byte-for-byte CLI outputs recorded from a known-good build.

Each case is one ``greenseq`` command line; ``golden/cli.json`` holds its
exit code, stdout and stderr.  Together the cases cover chord and wire
renders (finite, windowed, spliced and infinite charges), the JSON
forms of ``stable-set`` and ``mgs``, the witness constructors
(``witness``, ``reineke``, ``dn-charge``) with ``linearity`` and
``maxsets``, refusals included, and ``quiver``, ``collapse`` and
``verify``.  Cases named ``*-text`` run without ``--json`` and pin the
human tables.

To record the file again (only from a build whose outputs are trusted):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import greenseq as gs
from greenseq.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

AT5 = "At:-++--"
AT6 = "At:+++---"
GENERIC = '{"a": [-1, "1/2", -3, "3/2", 4], "b": ["1/2", "3/2", 2, 1, "3/2"]}'
SEMISTABLE = '{"a": [-2, 2, 4, -2, 2], "b": ["3/2", 1, "3/2", 1, 1]}'
TIE = '{"a": [-2, -1, -3, -2, 0], "b": ["1/2", "3/2", "1/2", "1/2", "3/2"]}'
FIG1 = ("A:-+", '{"a":["1/2","3/2","-2"],"b":[1,1,1]}')
DN = ("Dcyc:6", '{"a":[3,-1,"1/2",-2,2,"-3/4"],"b":[1,2,"1/3",1,"5/2",1]}')
INFINITE = ("At:+-", '{"a":[1,0],"b":[1,1]}')


def _splice():
    path = gs.witness_spliced(gs.affine_a("+++---"), 2, 5)
    return ["--quiver", "At:+++---", "--charge", json.dumps(path.z.to_json()),
            "--charge-prime", json.dumps(path.z_prime.to_json())]


def cases() -> dict[str, list[str]]:
    splice = _splice()
    out = {}
    for mode in ("chord", "wire"):
        out[f"{mode}-finite"] = ["render", mode, "--quiver", AT5, "--charge", GENERIC]
        out[f"{mode}-fig1"] = ["render", mode, "--quiver", FIG1[0], "--charge", FIG1[1]]
        out[f"{mode}-cycle"] = ["render", mode, "--quiver", DN[0], "--charge", DN[1]]
        out[f"{mode}-spliced"] = ["render", mode] + splice
    out["chord-window"] = ["render", "chord", "--quiver", AT5, "--charge", SEMISTABLE,
                           "--window", "-2", "9"]
    out["wire-window"] = ["render", "wire", "--quiver", AT5, "--charge", TIE,
                          "--window", "-2", "5/2"]
    out["chord-infinite"] = ["render", "chord", "--quiver", INFINITE[0], "--charge", INFINITE[1]]
    out["wire-infinite"] = ["render", "wire", "--quiver", INFINITE[0], "--charge", INFINITE[1]]
    out["chord-infinite-window"] = ["render", "chord", "--quiver", INFINITE[0],
                                    "--charge", INFINITE[1], "--window", "-1", "7"]
    for name, charge in (("generic", GENERIC), ("semistable", SEMISTABLE), ("tie", TIE)):
        out[f"stable-set-{name}"] = ["stable-set", "--json", "--quiver", AT5, "--charge", charge]
        out[f"stable-set-{name}-semi"] = out[f"stable-set-{name}"] + ["--semistable"]
        out[f"mgs-{name}"] = ["mgs", "--json", "--quiver", AT5, "--charge", charge]
    for quiver, charge in (FIG1, DN):
        label = quiver.split(":")[0]
        out[f"stable-set-{label}-semi"] = ["stable-set", "--json", "--semistable",
                                          "--quiver", quiver, "--charge", charge]
        out[f"mgs-{label}"] = ["mgs", "--json", "--quiver", quiver, "--charge", charge]
    out["mgs-universal-tie"] = ["mgs", "--json", "--quiver", "A:-+",
                                "--charge", '{"a":[0,0,0],"b":[1,1,1]}']
    # witness constructors: direct Cond2 template, mirrored Cond1
    # template, spliced template, and the refusal of a nonlinear pair
    for k, l in ((1, 4), (2, 4), (2, 5)):
        out[f"witness-{k}{l}"] = ["witness", "--json", "--quiver", AT6,
                                  "--k", str(k), "--l", str(l)]
    out["witness-14-spliced"] = ["witness", "--json", "--quiver", AT6, "--k", "1", "--l", "4",
                                 "--kind", "spliced"]
    out["witness-25-linear"] = ["witness", "--json", "--quiver", AT6, "--k", "2", "--l", "5",
                                "--kind", "linear"]
    out["reineke"] = ["reineke", "--json", "--quiver", "A:-+-+"]
    out["dn-charge"] = ["dn-charge", "--json", "--quiver", "Dcyc:5", "--k", "2"]
    out["linearity"] = ["linearity", "--json", "--quiver", AT6, "--k", "2", "--l", "5"]
    out["maxsets"] = ["maxsets", "--json", "--quiver", AT6]
    out["quiver"] = ["quiver", "--json", "--quiver", AT5]
    out["collapse"] = ["collapse", "--json", "--quiver", AT5, "--arrows", "1",
                       "--k", "2", "--l", "4"]
    out["verify"] = ["verify", "--json", "--quiver", "A:-+", "--quiver", "Dcyc:4",
                     "--trials", "3", "--seed", "7"]
    # the human forms of the same commands
    out["stable-set-A-semi-text"] = ["stable-set", "--semistable", "--quiver", FIG1[0],
                                     "--charge", FIG1[1]]
    out["mgs-A-text"] = ["mgs", "--quiver", FIG1[0], "--charge", FIG1[1]]
    for name in ("witness-14", "witness-25", "reineke", "dn-charge", "linearity", "maxsets",
                 "quiver", "collapse", "verify"):
        out[f"{name}-text"] = [arg for arg in out[name] if arg != "--json"]
    return out


CASES = cases()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recording(recorded, name):
    argv = CASES[name]
    assert recorded[name]["argv"] == argv
    got = run(argv)
    want = recorded[name]
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    assert got["stdout"] == want["stdout"]


def test_every_case_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


if __name__ == "__main__":
    table = {name: dict(argv=argv, **run(argv)) for name, argv in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(table)} cases in {GOLDEN}\n")
