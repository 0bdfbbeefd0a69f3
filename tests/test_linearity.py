import dataclasses
from fractions import Fraction as F

import pytest

import greenseq as gs
from conftest import affine_quivers, affine_words
from greenseq import linearity
from greenseq.stability import modules_sorted


class TestVerdicts:
    def test_nonlinear_pair_and_witness(self):
        q = gs.affine_a("+++---")
        v = gs.is_linear_set(q, 2, 5)
        assert not v.linear
        assert v.pattern_witness == (3, 4, 6, 7)
        k1, l1, l2, k2 = v.pattern_witness
        assert 2 < k1 < l1 < 5 < l2 < k2 < 8
        assert q.sign(k1) == q.sign(k2) == gs.PLUS
        assert q.sign(l1) == q.sign(l2) == gs.MINUS

    def test_exactly_one_nonlinear_on_333(self):
        q = gs.affine_a("+++---")
        flags = [v.linear for _, _, v in gs.linear_pairs(q)]
        assert flags.count(False) == 1 and len(flags) == 9

    def test_linear_pair(self):
        v = gs.is_linear_set(gs.affine_a("+++---"), 1, 4)
        assert v.linear and v.pattern_witness is None

    def test_short_pairs_always_linear(self):
        for q in affine_quivers(6):
            for k, l in gs.valid_pairs(q):
                if l - k <= 2:
                    assert gs.is_linear_set(q, k, l).linear

    def test_small_side_always_linear(self):
        for q in affine_quivers(7):
            if min(q.a, q.b) <= 2:
                for k, l in gs.valid_pairs(q):
                    assert gs.is_linear_set(q, k, l).linear

    def test_complementarity_exhaustive(self):
        # Cond1-or-Cond2 and the 4-index pattern are mutually exclusive
        # and cover everything; pure sign combinatorics, so sweep n <= 10
        for n in range(2, 11):
            for w in affine_words(n):
                q = gs.affine_a(w)
                for k, l in gs.valid_pairs(q):
                    v = gs.is_linear_set(q, k, l)
                    assert v.linear == (v.pattern_witness is None)
                    assert v.linear == (v.satisfied_condition is not None)

    @pytest.mark.parametrize(
        "k,l",
        [
            (0, 2),  # k below [1, n]; sign(0) = sign(6) is +
            (7, 9),  # k above [1, n]
            (1, 1),  # l = k
            (1, 7),  # l = k + n
            (2, 4),  # sign(2) is -
            (1, 4),  # sign(4) is +
        ],
    )
    def test_invalid_pair_raises(self, k, l):
        q = gs.affine_a("+--+-+")
        with pytest.raises(ValueError):
            gs.is_linear_set(q, k, l)

    @pytest.mark.parametrize("spec", ["A:-+", "Dcyc:4"])
    def test_non_affine_quiver_raises(self, spec):
        with pytest.raises(gs.InvalidQuiver):
            gs.is_linear_set(gs.parse_quiver(spec), 1, 2)


class TestReineke:
    def test_example_heights(self):
        Z = gs.reineke_charge(gs.finite_a("-+"))
        assert Z.a == (F(-2), F(4), F(-2))
        assert len(gs.stable_set(Z)) == 6

    def test_a1(self):
        Z = gs.reineke_charge(gs.finite_a(""))
        assert len(gs.stable_set(Z)) == 1

    def test_all_orientations_n5(self):
        for w in gs.all_sign_words(4):
            q = gs.finite_a(w)
            Z = gs.reineke_charge(q)
            assert Z.is_standard
            assert len(gs.stable_set(Z)) == 15

    def test_wrong_kind(self):
        with pytest.raises(gs.InvalidQuiver):
            gs.reineke_charge(gs.affine_a("+-"))


class TestDnCharge:
    def test_q5_stable_set(self):
        q = gs.cycle_quiver(5)
        Z = gs.dn_charge(q, 1)
        assert Z.is_standard
        assert gs.stable_set(Z) == gs.build_Sk(q, 1)
        assert len(gs.stable_set(Z)) == 14

    def test_q4_all_k(self):
        q = gs.cycle_quiver(4)
        sets = [gs.stable_set(gs.dn_charge(q, k)) for k in range(1, 5)]
        assert sets == [gs.build_Sk(q, k) for k in range(1, 5)]
        assert len(set(map(frozenset, sets))) == 4


class TestWitnessLinear:
    def test_worked_diagram_quiver(self):
        q = gs.affine_a("-++--+")
        Z = gs.witness_linear(q, 2, 5)
        assert gs.stable_set(Z) == gs.build_Skl(q, 2, 5).modules
        assert len(gs.stable_set(Z)) == 24

    def test_literal_diagram_coordinates(self):
        # the worked chord diagram: vertices (-1,-2),(0,0),(2,2),(4,e-2),
        # (6,e),(7,2+e) with period (13,0) and e = 1/5
        q = gs.affine_a("-++--+")
        e = F(1, 5)
        ys = [2 + e, -2, 0, 2, e - 2, e, 2 + e]
        xs = [-6, -1, 0, 2, 4, 6, 7]
        a = [ys[t] - ys[t - 1] for t in range(1, 7)]
        b = [xs[t] - xs[t - 1] for t in range(1, 7)]
        Z = gs.make_charge(q, a, b)
        assert gs.stable_set(Z) == gs.build_Skl(q, 2, 5).modules

    def test_kronecker(self):
        q = gs.affine_a("+-")
        Z = gs.witness_linear(q, 1, 2)
        assert {(m.i, m.j) for m in gs.stable_set(Z)} == {(0, 1), (1, 2)}

    def test_22_row(self):
        q = gs.affine_a("++--")
        Z = gs.witness_linear(q, 1, 3)
        assert gs.stable_set(Z) == gs.build_Skl(q, 1, 3).modules

    def test_nonlinear_rejected(self):
        with pytest.raises(ValueError):
            gs.witness_linear(gs.affine_a("+++---"), 2, 5)


class TestWitnessSpliced:
    def test_nonlinear_set_realized(self):
        q = gs.affine_a("+++---")
        p = gs.witness_spliced(q, 2, 5)
        got = gs.spliced_stable_set(p)
        assert got == gs.build_Skl(q, 2, 5).modules
        assert len(got) == 24

    def test_kronecker(self):
        q = gs.affine_a("+-")
        p = gs.witness_spliced(q, 1, 2)
        assert {(m.i, m.j) for m in gs.spliced_stable_set(p)} == {(0, 1), (1, 2)}

    def test_every_pair_on_32(self):
        q = gs.affine_a("++-+-")
        for k, l in gs.valid_pairs(q):
            p = gs.witness_spliced(q, k, l)
            got = gs.spliced_stable_set(p)
            assert got == gs.build_Skl(q, k, l).modules
            assert len(got) == 16

    def test_shared_a_vector(self):
        p = gs.witness_spliced(gs.affine_a("+--"), 1, 2)
        assert p.z.a == p.z_prime.a


class TestCertifier:
    """The failure branches of the one certifier behind every constructor."""

    def test_mismatch_names_missing_and_extra(self):
        q = gs.cycle_quiver(5)
        Z = gs.dn_charge(q, 2)
        got = gs.stable_set(Z)
        dropped = min(got, key=lambda m: (m.i, m.j))
        added = next(m for m in gs.candidate_modules(q) if m not in got)
        target = (got - {dropped}) | {added}
        with pytest.raises(gs.VerificationFailed) as err:
            linearity._certify(Z, target, gs.VerificationFailed, "probe")
        message = str(err.value)
        assert message.startswith("probe: stable set mismatch")
        assert f"missing [{added!r}]" in message
        assert f"extra [{dropped!r}]" in message
        assert (err.value.missing, err.value.extra) == ((added,), (dropped,))
        assert err.value.payload() == {
            "error": "verification-failed",
            "missing": [{"i": added.i, "j": added.j}],
            "extra": [{"i": dropped.i, "j": dropped.j}],
            "message": message,
        }

    def test_spliced_mismatch_carries_modules(self):
        # a spliced witness checked against another S(k, l) of its quiver
        q = gs.affine_a("++-+-")
        p = gs.witness_spliced(q, 1, 3)
        target = gs.build_Skl(q, 1, 5).modules
        got = gs.spliced_stable_set(p)
        with pytest.raises(gs.WitnessSearchFailed) as err:
            linearity._certify(p, target, gs.WitnessSearchFailed, "probe")
        assert err.value.missing == tuple(modules_sorted(target - got))
        assert err.value.extra == tuple(modules_sorted(got - target))
        assert err.value.missing and err.value.extra
        payload = err.value.payload()
        assert payload["missing"] == [{"i": m.i, "j": m.j} for m in err.value.missing]
        assert payload["extra"] == [{"i": m.i, "j": m.j} for m in err.value.extra]

    def test_linear_search_carries_the_last_mismatch(self, monkeypatch):
        # every eps certifies against a target with one module too many
        q = gs.affine_a("+++---")
        real = gs.build_Skl(q, 1, 4)
        intruder = next(m for m in gs.candidate_modules(q) if m not in real.modules)
        monkeypatch.setattr(linearity, "build_Skl", lambda q, k, l: dataclasses.replace(
            real, modules=real.modules | {intruder}))
        with pytest.raises(gs.WitnessSearchFailed, match="failed at every eps") as err:
            gs.witness_linear(q, 1, 4)
        assert (err.value.missing, err.value.extra) == ((intruder,), ())

    def test_other_failures_carry_no_modules(self):
        err = gs.VerificationFailed("no set involved")
        assert (err.missing, err.extra) == ((), ())
        assert err.payload() == {"error": "verification-failed", "missing": [], "extra": [],
                                 "message": "no set involved"}

    def test_kernels_rerun_on_every_member(self, monkeypatch):
        calls = {"_chord": 0, "_wire": 0}
        for name in calls:
            kernel = getattr(linearity, name)

            def counted(Z, i, j, slope, kernel=kernel, name=name):
                calls[name] += 1
                assert slope == (Z._ctx.ya[j] - Z._ctx.ya[i], Z._ctx.xb[j] - Z._ctx.xb[i])
                return kernel(Z, i, j, slope)

            monkeypatch.setattr(linearity, name, counted)
        q = gs.affine_a("+++---")
        gs.witness_spliced(q, 2, 5)
        size = gs.max_mgs_length(q)
        assert calls == {"_chord": size, "_wire": size}

    def test_kernel_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(linearity, "_wire", lambda Z, i, j, slope: -1)
        q = gs.affine_a("+++---")
        with pytest.raises(gs.WitnessSearchFailed, match="criteria disagree"):
            gs.witness_spliced(q, 2, 5)
        with pytest.raises(gs.VerificationFailed, match="criteria disagree"):
            gs.reineke_charge(gs.finite_a("-+-+"))

    def test_linear_search_exhausted(self, monkeypatch):
        monkeypatch.setattr(linearity, "_wire", lambda Z, i, j, slope: -1)
        with pytest.raises(gs.WitnessSearchFailed, match="failed at every eps"):
            gs.witness_linear(gs.affine_a("+++---"), 1, 4)

    def test_linear_search_exhausted_on_infinite_charges(self, monkeypatch):
        q = gs.affine_a("+-")
        infinite = gs.make_charge(q, [1, 0], [1, 1])  # no essential pair
        calls = []

        def template(*args):
            calls.append(args)
            return infinite

        monkeypatch.setattr(linearity, "_cond2_charge", template)
        with pytest.raises(gs.WitnessSearchFailed, match="no essential pair"):
            gs.witness_linear(q, 1, 2)
        assert len(calls) == len(linearity.EPS_SCHEDULE)
