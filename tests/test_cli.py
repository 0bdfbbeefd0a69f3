import json

import pytest

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
        "mode, window", [("chord", ("2", "2")), ("wire", ("a", "3")), ("wire", ("1e9", "2e9"))]
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
