import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from conftest import affine_quivers, affine_words, cycle_quivers, finite_quivers
from greenseq import linearity
from greenseq.stability import _chord, _slope_pair, candidate_pairs, modules_sorted

W128 = ("++--+-+---+-++++-++---++--+-+-+-+++-+-+++---+--++---+-++++-++----+++--+-+++-++++++-"
        "++--++++---+-++-+-++-+--+-+-++++++++++--+++-+")


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

    @pytest.mark.parametrize("bad", [1.0, "1", None, F(1), True])
    def test_non_integer_index_raises(self, bad):
        # k and l of every S(k, l) entry point and k of dn_charge go
        # through one gate, the StringModule rule type(x) is int
        q = gs.affine_a("+++---")
        for fn in (gs.is_linear_set, gs.witness_linear, gs.witness_spliced):
            for name, k, l in (("k", bad, 4), ("l", 1, bad)):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    fn(q, k, l)
        with pytest.raises(ValueError, match="k must be an integer"):
            gs.dn_charge(gs.cycle_quiver(5), bad)


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

    def test_large_cond1_pair(self):
        # n = 128, a = 75, b = 53: a mirrored template whose member
        # M(3,129) spans almost a period; a height gap that does not
        # shrink with the template's period leaves it unstable
        q = gs.affine_a(W128)
        assert gs.is_linear_set(q, 2, 4).satisfied_condition == "Cond1"
        got = gs.stable_set(gs.witness_linear(q, 2, 4))
        assert gs.StringModule(q, 3, 129) in got
        assert got == gs.build_Skl(q, 2, 4).modules

    @pytest.mark.parametrize("n,count", [(64, 6), (128, 3)])
    def test_random_large_pairs(self, n, count):
        rng = random.Random(n)
        done = 0
        while done < count:
            q = gs.affine_a("".join(rng.choice("+-") for _ in range(n)))
            linear = [(k, l) for k, l, v in gs.linear_pairs(q) if v.linear]
            if linear:
                k, l = rng.choice(linear)
                assert gs.stable_set(gs.witness_linear(q, k, l)) == gs.build_Skl(q, k, l).modules
                done += 1


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
        want = {(m.i, m.j) for m in (got - {dropped}) | {added}}
        with pytest.raises(gs.VerificationFailed) as err:
            linearity._certify(Z, want, gs.VerificationFailed, "probe")
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
            linearity._certify(p, {(m.i, m.j) for m in target}, gs.WitnessSearchFailed, "probe")
        assert err.value.missing == tuple(modules_sorted(target - got))
        assert err.value.extra == tuple(modules_sorted(got - target))
        assert err.value.missing and err.value.extra
        payload = err.value.payload()
        assert payload["missing"] == [{"i": m.i, "j": m.j} for m in err.value.missing]
        assert payload["extra"] == [{"i": m.i, "j": m.j} for m in err.value.extra]

    def test_linear_mismatch_carries_modules(self, monkeypatch):
        # the one linear template certifies against a target with one
        # pair too many
        q = gs.affine_a("+++---")
        A, B, real = gs.maxsets._skl_pairs(q, 1, 4)
        intruder = next(m for m in gs.candidate_modules(q) if (m.i, m.j) not in real)
        monkeypatch.setattr(linearity, "_skl_pairs", lambda q, k, l: (
            A, B, real | {(intruder.i, intruder.j)}))
        with pytest.raises(gs.WitnessSearchFailed, match="stable set mismatch") as err:
            gs.witness_linear(q, 1, 4)
        assert (err.value.missing, err.value.extra) == ((intruder,), ())

    def test_other_failures_carry_no_modules(self):
        err = gs.VerificationFailed("no set involved")
        assert (err.missing, err.extra) == ((), ())
        assert err.payload() == {"error": "verification-failed", "missing": [], "extra": [],
                                 "message": "no set involved"}

    def test_member_sweep_checks_every_member_once(self, monkeypatch):
        # one sweep per charge over that charge's members, which never
        # reads the integer context the classification ran on
        calls = []
        sweep = linearity._unstable_members

        def counted(Z, pairs):
            calls.append(len(pairs))
            with monkeypatch.context() as mp:  # a property shadows the cached context
                mp.setattr(gs.CentralCharge, "_ctx", property(lambda Z: pytest.fail("read _ctx")))
                return sweep(Z, pairs)

        monkeypatch.setattr(linearity, "_unstable_members", counted)
        q = gs.affine_a("+++---")
        gs.witness_spliced(q, 2, 5)
        assert len(calls) == 2 and sum(calls) == gs.max_mgs_length(q)

    def test_kernel_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(linearity, "_unstable_members", lambda Z, pairs: pairs)
        q = gs.affine_a("+++---")
        with pytest.raises(gs.WitnessSearchFailed, match="criteria disagree"):
            gs.witness_spliced(q, 2, 5)
        with pytest.raises(gs.VerificationFailed, match="criteria disagree"):
            gs.reineke_charge(gs.finite_a("-+-+"))

    def test_linear_search_exhausted(self, monkeypatch):
        # the one build of the linear template, direct and mirrored, has no
        # second try: a certifier disagreement is the constructor's failure
        monkeypatch.setattr(linearity, "_unstable_members", lambda Z, pairs: pairs)
        q = gs.affine_a("+++---")
        for k, l in ((1, 4), (2, 4)):
            with pytest.raises(gs.WitnessSearchFailed, match="criteria disagree"):
                gs.witness_linear(q, k, l)

    def test_corrupted_sign_table_is_caught(self):
        # the classification reads the sign table of Z._ctx, the member
        # sweep reads q.signs: shifting the table by one breaks the set
        # comparison, and the member sweep catches it on its own when the
        # target is the corrupted stable set itself
        q = gs.affine_a("+++---")
        want = linearity._skl_pairs(q, 1, 6)[2]
        linearity._certify(gs.witness_linear(q, 1, 6), want, gs.VerificationFailed, "probe")
        Z = gs.witness_linear(q, 1, 6)
        bad = gs.CentralCharge(q, Z.a, Z.b)
        bad._ctx.sig = bad._ctx.sig[1:] + bad._ctx.sig[:1]
        with pytest.raises(gs.VerificationFailed, match="stable set mismatch"):
            linearity._certify(bad, want, gs.VerificationFailed, "probe")
        got = {(m.i, m.j) for m in gs.stable_set(bad)}
        with pytest.raises(gs.VerificationFailed, match=r"criteria disagree on M\(4,7\)"):
            linearity._certify(bad, got, gs.VerificationFailed, "probe")

    def test_linear_infinite_template_is_refused(self, monkeypatch):
        # a template with no essential pair is refused by the
        # classification, as a library error, after one build
        q = gs.affine_a("+-")
        infinite = gs.make_charge(q, [1, 0], [1, 1])
        calls = []

        def template(*args):
            calls.append(args)
            return infinite

        monkeypatch.setattr(linearity, "_cond2_charge", template)
        with pytest.raises(gs.InfiniteStableSet, match="no essential pair"):
            gs.witness_linear(q, 1, 2)
        assert len(calls) == 1

    def test_one_build_one_certificate(self, monkeypatch):
        # every template goes through _through once
        calls = []

        def counted(name):
            fn = getattr(linearity, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(linearity, name, wrapper)

        counted("_through")
        counted("_certify")
        cases = [(gs.witness_linear, (gs.affine_a("+++---"), k, l)) for k, l in ((1, 4), (2, 4))]
        cases += [(gs.reineke_charge, (gs.finite_a(w),)) for w in ("", "-+", "+-+-++-")]
        for fn, args in cases:
            calls.clear()
            fn(*args)
            assert sorted(calls) == ["_certify", "_through"], (fn.__name__, args)


# ---------------------------------------------------------------------------
# the templates as they were built on Fractions, kept as references


def _through_reference(q, k, xs, ys):
    n = q.n
    a = [0] * n
    b = [0] * n
    for t in range(k + 1, k + n + 1):
        a[(t - 1) % n] = ys[t] - ys[t - 1]
        b[(t - 1) % n] = xs[t] - xs[t - 1]
    return gs.make_charge(q, a, b)


def _cond2_reference(q, k, l, eps):
    n = q.n
    g1 = list(range(k + 1, l))
    g2 = [t for t in range(l + 1, k + n) if q.sign(t) == gs.PLUS]
    g3 = [t for t in range(l + 1, k + n) if q.sign(t) == gs.MINUS]
    if g2 and g3 and max(g2) > min(g3):
        raise ValueError("template needs the positives of (l, k+n) first")
    m, n2, n3 = len(g1), len(g2), len(g3)
    period = F(4 * m + n2 + 10)
    if eps is None:
        eps = 1 / period
    xs = {k: F(0), l: F(2 * m + 3), k + n: period}
    for idx, t in enumerate(g1, start=1):
        xs[t] = F(2 * idx + 1)
    for idx, t in enumerate(g2, start=1):
        xs[t] = xs[l] + F(idx, n2 + 1)
    for idx, t in enumerate(g3, start=1):
        xs[t] = period - 2 + F(idx, n3)
    eta = eps / (10_000 * (period + 3) ** 2)
    ys = {k: F(0), l: eps, k + n: F(0)}
    for t in range(k + 1, k + n):
        if t == l:
            continue
        if q.sign(t) == gs.PLUS:
            ys[t] = 2 - eta * (xs[t] + F(1, 3)) ** 2
        else:
            rep = xs[t] if t < l else xs[t] - period
            ys[t] = -2 + eta * (rep + F(7, 3)) ** 2
    return _through_reference(q, k, xs, ys)


def _pos_arc(x):
    return 21 - F(2, 21) * (x + 10) + F(1, 1000) * (x + 10) * (11 - x)


def _neg_arc(x):
    return -19 - F(2, 21) * (x - 10) - F(1, 1000) * (x - 10) * (31 - x)


def _spliced_reference(q, k, l, shift):
    n = q.n
    xs = {k: F(-14) - shift, l: F(-5) + shift, k + n: F(26) - shift}
    ys = {k: F(-1), l: F(1), k + n: F(-1)}
    left = range(k + 1, l)
    right = range(l + 1, k + n)
    for idx, t in enumerate(left, start=1):
        x = -10 + F(idx, len(left) + 1)
        xs[t] = x
        ys[t] = _pos_arc(x) if q.sign(t) == gs.PLUS else _neg_arc(x + 40)
    for idx, t in enumerate(right, start=1):
        x = 10 + F(idx, len(right) + 1)
        xs[t] = x
        ys[t] = _pos_arc(x) if q.sign(t) == gs.PLUS else _neg_arc(x)
    return _through_reference(q, k, xs, ys)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


class TestIntegerTemplates:
    """The integer templates give the very charges of the Fraction ones."""

    def test_templates_match_fraction_references(self):
        for q in affine_quivers(8):
            for k, l in gs.valid_pairs(q):
                for shift in (0, 10):
                    got = linearity._spliced_charge(q, k, l, shift)
                    assert got == _spliced_reference(q, k, l, F(shift)), (q, k, l, shift)
                    assert all(type(v) is F for v in got.a + got.b)
                # the default gap 1/P, then given ones
                got = _outcome(linearity._cond2_charge, q, k, l)
                assert got == _outcome(_cond2_reference, q, k, l, None), (q, k, l)
                for eps in (F(1, 5), F(2, 27), F(1, 40)):
                    got = _outcome(linearity._cond2_charge, q, k, l, eps)
                    assert got == _outcome(_cond2_reference, q, k, l, eps), (q, k, l, eps)

    def test_standard_charges_unchanged(self):
        # the +-s(n-s) heights and the S(k) parabola, as make_charge
        # built them
        for q in finite_quivers(12):
            n = q.n
            ys = [0] + [s * (n - s) * q.sign(s) for s in range(1, n)] + [0]
            assert gs.reineke_charge(q) == _through_reference(q, 0, range(n + 1), ys), q
        for q in cycle_quivers(12):
            n = q.n
            for k in range(1, n + 1):
                ys = [-((2 * k + n - 2 * j) ** 2) for j in range(k + n + 1)]
                assert gs.dn_charge(q, k) == _through_reference(q, k, range(k + n + 1), ys)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_member_sweep_matches_chord(data):
    # denominators <= 4 make ties and strictly semistable modules common;
    # the sweep takes any sorted subset of the candidates
    spec = data.draw(st.sampled_from(
        ["A:", "A:-", "A:-+", "A:+-+-", "A:--++-", "At:+-", "At:++-", "At:-++--",
         "At:+-+--+", "Dcyc:4", "Dcyc:6"]
    ))
    q = gs.parse_quiver(spec)
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pos = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    Z = gs.CentralCharge(
        q, data.draw(st.tuples(*[rat] * q.n)), data.draw(st.tuples(*[pos] * q.n))
    )
    pairs = list(candidate_pairs(q))
    unstable = [(i, j) for i, j in pairs if not _chord(Z, i, j, _slope_pair(Z, i, j)) > 0]
    assert linearity._unstable_members(Z, pairs) == unstable
    some = sorted(data.draw(st.sets(st.sampled_from(pairs))))
    assert linearity._unstable_members(Z, some) == [p for p in some if p in unstable]

