import contextlib
import io
import json

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
         '{"a":["1e100000",1],"b":[1,1]}'],
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_render_refuses_malformed_window_or_charge(data):
    # an uncaught exception would escape main() here, as a traceback does
    spec, charge = data.draw(st.sampled_from(_RENDER_CASES))
    q = gs.parse_quiver(spec)
    mode = data.draw(st.sampled_from(["chord", "wire"]))
    argv = ["render", mode, "--quiver", spec]
    if data.draw(st.booleans()):
        argv += ["--charge", charge, "--window", *data.draw(_malformed_window(mode, q))]
    else:
        argv += ["--charge", data.draw(_malformed_charge(q.n))]
    code, out, err = _run_captured(argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    payload = json.loads(err)
    assert payload["error"] in ("value-error", "invalid-charge")
    if "--window" in argv:
        assert "window" in payload["message"]


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

        monkeypatch.setattr("greenseq.cli.ProcessPoolExecutor", InlinePool)
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
