import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from greenseq.cli import main

FIG1_CHARGE = '{"a":["1/2","3/2","-2"],"b":[1,1,1]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasics:
    def test_quiver(self, capsys):
        code, out, _ = run(capsys, "quiver", "--quiver", "At:-++--", "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["kind"], data["n"], data["a"], data["b"]) == ("At", 5, 2, 3)

    def test_quiver_error_is_json_exit1(self, capsys):
        code, _, err = run(capsys, "quiver", "--quiver", "At:+++")
        assert code == 1
        assert json.loads(err)["error"] == "invalid-quiver"

    def test_huge_cycle_refused(self, capsys):
        code, out, err = run(capsys, "quiver", "--quiver", "Dcyc:100000000000")
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "invalid-quiver" and "cap" in payload["message"]

    def test_usage_error_exit2(self):
        with pytest.raises(SystemExit) as err:
            main(["quiver"])
        assert err.value.code == 2

    def test_mgs_figure1(self, capsys):
        code, out, _ = run(capsys, "mgs", "--quiver", "A:-+", "--charge", FIG1_CHARGE, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ordered"] is True
        assert [(m["i"], m["j"]) for m in data["modules"]] == [
            (2, 3), (1, 3), (0, 1), (0, 2), (1, 2)
        ]

    def test_stable_set_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "stable-set", "--quiver", "A:-+", "--charge", FIG1_CHARGE, "--json"
        )
        assert code == 0
        q = gs.finite_a("-+")
        mods = {gs.module_from_json(q, m) for m in json.loads(out)["modules"]}
        assert mods == gs.stable_set(gs.charge_from_json(q, json.loads(FIG1_CHARGE)))

    def test_nongeneric_mgs_error(self, capsys):
        code, _, err = run(
            capsys, "mgs", "--quiver", "A:-+", "--charge", '{"a":[0,0,0],"b":[1,1,1]}'
        )
        assert code == 1
        assert json.loads(err)["error"] == "non-generic"

    def test_infinite_stable_set_error(self, capsys):
        code, _, err = run(
            capsys, "stable-set", "--quiver", "At:+-", "--charge", '{"a":[1,0],"b":[1,1]}'
        )
        assert code == 1
        assert json.loads(err)["error"] == "infinite-stable-set"


class TestChargeValidation:
    @pytest.mark.parametrize(
        "charge",
        ['{"a":[1,2]}', '{"a":["1/0",1],"b":[1,1]}', "[1,2]", '{"a":[true,1],"b":[1,1]}',
         '{"a":["1e100000",1],"b":[1,1]}', "nope", "{", "{'a': [1], 'b': [1]}"],
    )
    @pytest.mark.parametrize("command", ["stable-set", "mgs"])
    def test_malformed_charge_is_json_exit1(self, capsys, command, charge):
        code, out, err = run(capsys, command, "--quiver", "At:+-", "--charge", charge)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "invalid-charge"


class TestSubcommands:
    def test_maxsets(self, capsys):
        code, out, _ = run(capsys, "maxsets", "--quiver", "At:++--", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["descriptors"]) == 4
        assert data["classes"] == 3

    def test_linearity(self, capsys):
        code, out, _ = run(
            capsys, "linearity", "--quiver", "At:+++---", "--k", "2", "--l", "5", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["linear"] is False
        assert data["pattern_witness"] == [3, 4, 6, 7]

    def test_witness_auto_spliced(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--quiver", "At:+++---", "--k", "2", "--l", "5", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "spliced" and data["verified"] is True
        assert data["stable_count"] == 24
        q = gs.affine_a("+++---")
        path = gs.SplicedPath(
            gs.charge_from_json(q, data["Z"]), gs.charge_from_json(q, data["Zprime"])
        )
        assert len(gs.spliced_stable_set(path)) == 24

    def test_witness_linear(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--quiver", "At:++--", "--k", "1", "--l", "3", "--json"
        )
        data = json.loads(out)
        assert code == 0 and data["kind"] == "linear" and data["Zprime"] is None

    def test_reineke(self, capsys):
        code, out, _ = run(capsys, "reineke", "--quiver", "A:-+-+", "--json")
        assert code == 0
        assert json.loads(out)["stable_count"] == 15

    def test_dn_charge(self, capsys):
        code, out, _ = run(capsys, "dn-charge", "--quiver", "Dcyc:5", "--k", "1", "--json")
        assert code == 0
        assert json.loads(out)["stable_count"] == 14

    def test_collapse(self, capsys):
        code, out, _ = run(
            capsys, "collapse", "--quiver", "At:-++--", "--arrows", "1",
            "--k", "2", "--l", "4", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["target"]["signs"] == "++--"
        assert len(data["projected_Skl"]) == gs.max_mgs_length(gs.affine_a("++--"))

    @pytest.mark.parametrize("given", [("--k", "2"), ("--l", "4")])
    def test_collapse_needs_both_k_and_l(self, capsys, given):
        code, out, err = run(
            capsys, "collapse", "--quiver", "At:-++--", "--arrows", "1", *given, "--json"
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "value-error"

    def test_render_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "fig.svg"
        code, out, _ = run(
            capsys, "render", "chord", "--quiver", "A:-+", "--charge", FIG1_CHARGE,
            "-o", str(out_file),
        )
        assert code == 0
        assert out_file.read_text().startswith("<?xml")

    def test_render_to_unwritable_path(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.svg"
        code, out, err = run(
            capsys, "render", "chord", "--quiver", "A:-+", "--charge", FIG1_CHARGE,
            "-o", str(out_file),
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "os-error"
        assert str(out_file) in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "mode, window",
        [("chord", ("2", "2")), ("wire", ("a", "3")), ("wire", ("1e9", "2e9")),
         ("chord", ("0", "9")), ("chord", ("-3", "2"))],
    )
    def test_render_bad_window(self, capsys, mode, window):
        code, _, err = run(
            capsys, "render", mode, "--quiver", "A:-+", "--charge", FIG1_CHARGE,
            "--window", *window,
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "value-error"
        assert "window" in payload["message"]

    def test_render_negative_rational_window(self, capsys):
        argv = ["render", "wire", "--quiver", "A:-+", "--charge", FIG1_CHARGE, "--window"]
        code, decimal, _ = run(capsys, *argv, "-0.5", "3")
        assert code == 0
        assert run(capsys, *argv, "-1/2", "3") == (0, decimal, "")

    def test_render_wide_chord_window_refused(self, capsys):
        # 80,200 pairs: over the cap, yet cheap to draw were it not there
        code, out, err = run(capsys, "render", "chord", "--quiver", "At:+-",
                             "--charge", '{"a":[1,-1],"b":[1,1]}', "--window", "0", "400")
        assert (code, out) == (1, "")
        assert "too wide" in json.loads(err)["message"]

    def test_render_has_no_json_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["render", "chord", "--quiver", "A:-+", "--charge", FIG1_CHARGE, "--json"])
        assert err.value.code == 2

    def test_render_spliced_wire(self, capsys):
        q = gs.affine_a("+--")
        p = gs.witness_spliced(q, 1, 2)
        code, out, _ = run(
            capsys, "render", "wire", "--quiver", "At:+--",
            "--charge", json.dumps(p.z.to_json()),
            "--charge-prime", json.dumps(p.z_prime.to_json()),
        )
        assert code == 0
        assert out.count('class="stable-crossing"') == len(gs.spliced_stable_set(p))


# (quiver, a finite charge on it) for the refusal property
_RENDER_CASES = [
    ("A:-+", FIG1_CHARGE),
    ("At:-++--", '{"a": [-1, "1/2", -3, "3/2", 4], "b": ["1/2", "3/2", 2, 1, "3/2"]}'),
    ("Dcyc:6", '{"a":[3,-1,"1/2",-2,2,"-3/4"],"b":[1,2,"1/3",1,"5/2",1]}'),
]
# a bound word argparse passes on as a value: apart from negative
# numbers it takes a word starting with "-" for an option
_NOT_RATIONAL = st.sampled_from(
    ["", " ", "a", "/", "1/0", "1//2", "nan", "inf", "0x1", "1.2.3", "3-", "1/2/3"]
) | st.from_regex(r"[0-9]{1,3}[a-dx/][a-z]{1,2}", fullmatch=True)
_EXPONENT = st.builds(
    "{}{}{}".format, st.integers(0, 99), st.sampled_from("eE"), st.integers(-9, 9)
)


def _malformed_window(mode, q):
    bad = _NOT_RATIONAL | _EXPONENT
    if mode == "chord":
        bad |= st.sampled_from(["1/2", "0.5", "2.0", "1."])
        reversed_ = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
            lambda w: w[0] >= w[1]).map(lambda w: tuple(map(str, w)))
    else:
        decimal = st.decimals(min_value=-9, max_value=9, places=2).map("{:f}".format)
        reversed_ = st.tuples(decimal, decimal).filter(lambda w: float(w[0]) >= float(w[1]))
    windows = (
        st.tuples(bad, st.just("3")) | st.tuples(st.just("0"), bad) | st.tuples(bad, bad)
        | reversed_
    )
    if mode == "chord" and not q.is_cyclic:
        # chords of A_n end in [0, n]
        windows |= st.tuples(st.integers(-9, q.n + 9), st.integers(-9, q.n + 9)).filter(
            lambda w: w[0] < w[1] and (w[0] < 0 or w[1] > q.n)).map(lambda w: tuple(map(str, w)))
    return windows


def _malformed_charge(n):
    value = st.sampled_from(['"1/2"', "-2", "3"])
    bad = st.sampled_from(['"x"', '"1e5"', "1.5", "1e400", "true", "null", '"1/0"', "{}", "[]"])
    good = st.tuples(st.lists(value, min_size=n, max_size=n), st.lists(
        st.sampled_from(['"1/2"', "2"]), min_size=n, max_size=n))

    def corrupt(ab, key, where, with_):
        a, b = ab
        vec = {"a": list(a), "b": list(b)}
        if with_ == "drop":
            vec[key].pop(where % n)
        elif with_ == "extra":
            vec[key].append("1")
        else:
            vec[key][where % n] = with_
        return '{"a": [%s], "b": [%s]}' % (",".join(vec["a"]), ",".join(vec["b"]))

    corrupted = st.builds(
        corrupt, good, st.sampled_from("ab"), st.integers(0, n - 1),
        bad | st.sampled_from(["drop", "extra"]),
    )
    # b entries must be positive
    nonpositive = st.builds(
        corrupt, good, st.just("b"), st.integers(0, n - 1), st.sampled_from(["0", '"-1/2"'])
    )
    not_a_charge = st.sampled_from(
        ["", "{", "[1, 2", "nope", "{'a': [1]}", "[1, 2]", "3", "null", '"a"', '{"a": [1]}',
         '{"a": 1, "b": [1]}', "NaN", "[" * 100_000]
    )
    return corrupted | nonpositive | not_a_charge


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refusal(argv) -> dict:
    """The error payload of a refused command line: exit 1, nothing on
    stdout and exactly one JSON line on stderr.  An uncaught exception
    would escape main() here, as a traceback does."""
    code, out, err = _run_captured(argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    return json.loads(err)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_render_refuses_malformed_window_or_charge(data):
    spec, charge = data.draw(st.sampled_from(_RENDER_CASES))
    q = gs.parse_quiver(spec)
    mode = data.draw(st.sampled_from(["chord", "wire"]))
    argv = ["render", mode, "--quiver", spec]
    if data.draw(st.booleans()):
        argv += ["--charge", charge, "--window", *data.draw(_malformed_window(mode, q))]
    else:
        argv += ["--charge", data.draw(_malformed_charge(q.n))]
    payload = _refusal(argv)
    assert payload["error"] in ("value-error", "invalid-charge")
    if "--window" in argv:
        assert "window" in payload["message"]


# the rest of a valid command line after --quiver, per subcommand
_TAILS = {
    "quiver": [], "maxsets": [], "reineke": [],
    "stable-set": ["--charge", FIG1_CHARGE], "mgs": ["--charge", FIG1_CHARGE],
    "linearity": ["--k", "1", "--l", "2"], "witness": ["--k", "1", "--l", "2"],
    "dn-charge": ["--k", "1"], "collapse": ["--arrows", "1"],
    "render": ["--charge", FIG1_CHARGE], "verify": ["--trials", "1"],
}
_NOT_SIGNS = st.text("+-x 0", min_size=1, max_size=6).filter(lambda w: set(w) - set("+-"))
# no word starts with "-", which argparse would take for an option; a
# Dcyc size over the cap is refused before its signs are allocated
_MALFORMED_QUIVER = st.one_of(
    st.sampled_from(["", ":", "A", "At", "Dcyc", "A+-", "At:", "At:+", "At:++--+x", "Dcyc:"]),
    st.builds("{}:{}".format, st.sampled_from(["a", "B", "AT", "dcyc", "A t", "Q"]),
              st.text("+-", max_size=4)),
    st.builds("A:{}".format, _NOT_SIGNS),
    st.builds("At:{}".format, _NOT_SIGNS | st.sampled_from(["+", "-", "++", "---"])),
    st.builds("Dcyc:{}".format, st.integers(-99, 3).map(str) | st.sampled_from(
        ["x", "4.0", "1/2", "0x5", "5 5", "", "1e3"])
        | st.integers(gs.quivers.MAX_CYCLE_SIZE + 1, 10**30).map(str)),
)


def _outside(lo, hi):
    """Integers outside [lo, hi], also very large ones."""
    return st.integers(max_value=lo - 1) | st.integers(min_value=hi + 1)


@st.composite
def _out_of_range_k_l(draw):
    """(k, l) with k outside [1, n] or l outside (k, k + n), n = 5 as on At:-++--."""
    n = 5
    if draw(st.booleans()):
        k, l = draw(_outside(1, n)), draw(st.integers())
    else:
        k = draw(st.integers(1, n))
        l = draw(_outside(k + 1, k + n - 1))
    return ["--k", str(k), "--l", str(l)]


def _too_many_arrows(n):
    """Arrow lists naming more than n - 2 distinct positions mod n, or a
    token that is not an integer."""
    # a first arrow >= 0, as a leading "-" would read as an option
    shifts = st.tuples(st.integers(0, 3), st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    shifted = shifts.map(lambda s: ",".join(
        str(x + k * n) for x, k in zip(range(1, n + 1), [s[0], *s[1]])))
    return (st.builds(lambda w, m: w.rsplit(",", m)[0], shifted, st.integers(0, 1))
            | st.sampled_from(["x", "1,y", "1.5", "1;2", "0x1"]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subcommands_refuse_malformed_input(data):
    """Malformed --quiver text on every subcommand, a malformed charge on
    stable-set and mgs, and --k/--l/--arrows out of range each exit 1
    with one JSON line on stderr."""
    case = data.draw(st.sampled_from(["quiver", "charge", "k-l", "dn-k", "arrows"]))
    if case == "quiver":
        command = data.draw(st.sampled_from(sorted(_TAILS)))
        head = ["render", "chord"] if command == "render" else [command]
        argv = head + ["--quiver", data.draw(_MALFORMED_QUIVER)] + _TAILS[command]
        expected = "invalid-quiver"
    elif case == "charge":
        spec, _ = data.draw(st.sampled_from(_RENDER_CASES))
        charge = data.draw(_malformed_charge(gs.parse_quiver(spec).n))
        argv = [data.draw(st.sampled_from(["stable-set", "mgs"])), "--quiver", spec,
                "--charge", charge]
        expected = "invalid-charge"
    elif case == "k-l":
        command = data.draw(st.sampled_from(
            [["linearity"], ["witness"], ["collapse", "--arrows", "1"]]))
        argv = command + ["--quiver", "At:-++--"] + data.draw(_out_of_range_k_l())
        expected = "value-error"
    elif case == "dn-k":
        argv = ["dn-charge", "--quiver", "Dcyc:5", "--k", str(data.draw(_outside(1, 5)))]
        expected = "value-error"
    else:
        arrows = data.draw(_too_many_arrows(5))
        argv = ["collapse", "--quiver", "At:-++--", "--arrows", arrows]
        expected = "value-error" if re.search(r"[^0-9,-]", arrows) else "invalid-quiver"
    assert _refusal(argv)["error"] == expected


class TestVerify:
    def test_reproducible(self, capsys):
        args = ["verify", "--quiver", "At:+--", "--trials", "25", "--seed", "7", "--json"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["mismatches"] == []

    def test_multiple_quivers(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--quiver", "A:-+", "--quiver", "Dcyc:4",
            "--trials", "10", "--seed", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["mismatches"] == []

    def test_parallel_matches_serial(self, capsys):
        base = ["verify", "--quiver", "At:-++--", "--trials", "30", "--seed", "11", "--json"]
        _, serial, _ = run(capsys, *base)
        _, parallel, _ = run(capsys, *base, "--jobs", "2")
        assert serial == parallel

    def test_mismatch_exits_1_with_record(self, capsys, monkeypatch):
        q = gs.finite_a("-+")
        fig1 = gs.charge_from_json(q, json.loads(FIG1_CHARGE))
        wire = gs.stability._wire
        monkeypatch.setattr(gs.stability, "random_charge", lambda q, rng, max_den: fig1)
        monkeypatch.setattr(
            gs.stability, "_wire",
            lambda Z, i, j, slope: 0 if (i, j) == (1, 3) else wire(Z, i, j, slope),
        )
        code, out, _ = run(capsys, "verify", "--quiver", "A:-+", "--trials", "1", "--json")
        assert code == 1
        assert json.loads(out)["mismatches"] == [
            {"module": {"i": 1, "j": 3}, "oracle": 1, "chord": 1, "wire": 0,
             "charge": fig1.to_json(), "trial": 0}
        ]

    @pytest.mark.parametrize("flag", ["--trials", "--jobs"])
    def test_negative_count_refused(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--quiver", "A:-+", flag, "-5")
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "value-error" and flag in payload["message"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_max_denominator_refused(self, capsys, value):
        code, out, err = run(capsys, "verify", "--quiver", "A:-+", "--trials", "2",
                             "--max-denominator", value)
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "value-error"
        assert payload["message"] == f"--max-denominator must be positive, got {value}"

    def test_jobs_capped_at_trials(self, capsys, monkeypatch):
        """A pool forks all its workers up front: --jobs beyond the trial
        count must not ask it for more workers than there are trials."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # cmd_verify imports the pool class from its module when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        base = ["verify", "--quiver", "At:-++--", "--trials", "3", "--seed", "5", "--json"]
        _, serial, _ = run(capsys, *base)
        assert sizes == []
        code, parallel, _ = run(capsys, *base, "--jobs", "64")
        assert code == 0
        assert sizes == [3]
        assert parallel == serial
        code, out, _ = run(capsys, "verify", "--quiver", "At:-++--", "--trials", "0",
                           "--jobs", "4", "--json")
        assert code == 0
        assert json.loads(out)["mismatches"] == []
        assert sizes == [3]
        # one pool for every quiver
        sizes.clear()
        base = ["verify", "--quiver", "A:-+", "--quiver", "Dcyc:4", "--quiver", "At:+-",
                "--trials", "4", "--json"]
        _, serial, _ = run(capsys, *base)
        assert sizes == []
        code, parallel, _ = run(capsys, *base, "--jobs", "4")
        assert code == 0
        assert sizes == [4]
        assert parallel == serial


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    """Every ``greenseq ...`` line of the README's CLI section exits 0."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("greenseq ")]
    assert len(lines) >= 11
    monkeypatch.chdir(tmp_path)  # one line writes a file
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, ""), line
