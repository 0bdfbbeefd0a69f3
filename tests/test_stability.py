from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from greenseq import stability
from greenseq.stability import _oracle, _slope_pair, candidate_pairs, equivalence_mismatches, halves

A3 = gs.finite_a("-+")
FIG1 = gs.make_charge(A3, ["1/2", "3/2", -2], [1, 1, 1])
KRON = gs.affine_a("+-")


def kron(a1, a2):
    return gs.make_charge(KRON, [a1, a2], [1, 1])


class TestInWall:
    def test_interior(self):
        q = gs.finite_a("-")
        p1 = gs.string_module(q, 0, 2)
        assert gs.in_wall([1, -1], p1) is gs.WallMembership.INTERIOR

    def test_hyperplane_only(self):
        q = gs.finite_a("-")
        p1 = gs.string_module(q, 0, 2)
        assert gs.in_wall([-1, 1], p1) is gs.WallMembership.HYPERPLANE_ONLY

    def test_outside(self):
        q = gs.finite_a("-")
        p1 = gs.string_module(q, 0, 2)
        assert gs.in_wall([1, 1], p1) is gs.WallMembership.OUTSIDE

    def test_zero_is_boundary_with_proper_submodule(self):
        q = gs.finite_a("-")
        p1 = gs.string_module(q, 0, 2)
        assert gs.in_wall([0, 0], p1) is gs.WallMembership.BOUNDARY

    def test_accepts_rational_strings(self):
        q = gs.finite_a("-")
        p1 = gs.string_module(q, 0, 2)
        assert gs.in_wall(["1/3", "-1/3"], p1) is gs.WallMembership.INTERIOR

    def test_path_interior_iff_stable(self):
        # lambda_Z(t) = t*b - a crosses the wall interior of m at t = slope(m)
        for m in gs.candidate_modules(A3):
            t = gs.slope(FIG1, m)
            point = [t * bv - av for av, bv in zip(FIG1.a, FIG1.b)]
            interior = gs.in_wall(point, m) is gs.WallMembership.INTERIOR
            assert interior == gs.is_stable_oracle(FIG1, m)


class TestOracle:
    def test_no_submodule_is_stable(self):
        Z = kron(0, 1)
        assert gs.is_stable_oracle(Z, gs.string_module(KRON, 0, 1))

    def test_figure_unstable_module(self):
        m = gs.string_module(A3, 0, 3)
        assert not gs.is_semistable_oracle(FIG1, m)

    def test_figure_stable_module(self):
        assert gs.is_stable_oracle(FIG1, gs.string_module(A3, 0, 2))

    def test_semistable_not_stable(self):
        # equal slopes everywhere: every module semistable, only simples stable
        q = gs.finite_a("-")
        Z = gs.make_charge(q, [1, 1], [1, 1])
        m = gs.string_module(q, 0, 2)
        assert gs.is_semistable_oracle(Z, m) and not gs.is_stable_oracle(Z, m)


class TestChordWire:
    def test_chord_rejects_fig1_inverse(self):
        m = gs.string_module(A3, 0, 3)
        assert not gs.is_semistable_chord(FIG1, m)

    def test_wire_accepts_m13(self):
        m = gs.string_module(A3, 1, 3)
        assert gs.is_stable_wire(FIG1, m)

    def test_never_stable_double_wind(self):
        # M(i, i+2n) has the n-translate of its endpoint on the chord
        q = gs.affine_a("+--")
        Z = gs.make_charge(q, [1, 5, -2], [1, 1, 2])
        m = gs.StringModule(q, 1, 7)
        assert not gs.is_stable_chord(Z, m)
        assert not gs.is_stable_wire(Z, m)
        assert not gs.is_stable_oracle(Z, m)

    def test_boundary_case_agreement(self):
        # a parallel to b: every candidate is semistable, none stable but simples
        q = gs.affine_a("++--")
        Z = gs.make_charge(q, [2, 2, 2, 2], [1, 1, 1, 1])
        for i, j in candidate_pairs(q):
            m = gs.StringModule(q, i, j)
            assert gs.is_semistable_chord(Z, m) and gs.is_semistable_wire(Z, m)
            stable = gs.is_stable_chord(Z, m)
            assert stable == (m.length == 1)
            assert gs.is_stable_wire(Z, m) == stable
            assert gs.is_stable_oracle(Z, m) == stable


def test_long_affine_module_reaches_past_context():
    # M(0, 11) on a 2-vertex affine quiver ends beyond the 5n indices the
    # integer context is first built with
    Z = gs.make_charge(KRON, [1, -2], [1, 1])
    m = gs.string_module(KRON, 0, 11)
    stable = {fn(Z, m) for fn in (gs.is_stable_oracle, gs.is_stable_chord, gs.is_stable_wire)}
    semi = {fn(Z, m) for fn in
            (gs.is_semistable_oracle, gs.is_semistable_chord, gs.is_semistable_wire)}
    # the wall test works on rationals, without the integer context
    t = gs.slope(Z, m)
    wall = gs.in_wall([t * bv - av for av, bv in zip(Z.a, Z.b)], m)
    assert stable == {wall is gs.WallMembership.INTERIOR}
    assert semi == {wall in (gs.WallMembership.INTERIOR, gs.WallMembership.BOUNDARY)}


def test_criteria_canonicalize_cover_translates():
    q = gs.affine_a("+--")
    Z = gs.make_charge(q, [1, 5, -2], [1, 1, 2])
    for i, j in candidate_pairs(q):
        m = gs.StringModule(q, i - 3, j - 3)  # M(i, j) shifted one period left
        for fn in (gs.is_stable_oracle, gs.is_semistable_chord, gs.is_semistable_wire):
            assert fn(Z, m) == fn(Z, gs.StringModule(q, i, j))


CRITERIA = (
    gs.is_stable_oracle,
    gs.is_semistable_oracle,
    gs.is_stable_chord,
    gs.is_semistable_chord,
    gs.is_stable_wire,
    gs.is_semistable_wire,
)


@pytest.mark.parametrize("ij", [(-1, 2), (1, 4), (2, 2), (2, 1)])
def test_criteria_reject_out_of_range_finite_modules(ij):
    # building the module is the check: a negative index would read the
    # integer context from its end
    q = gs.finite_a("-+")
    Z = gs.make_charge(q, [1, -1, 2], [1, 1, 1])
    for fn in CRITERIA:
        with pytest.raises(gs.InvalidModule):
            fn(Z, gs.StringModule(q, *ij))


def test_criteria_reject_module_of_another_quiver():
    # slope and hom_dim refuse such a module; the criteria must too
    Z = gs.make_charge(gs.affine_a("+--+"), [1, 2, -1, 3], [1, 1, 1, 1])
    m = gs.string_module(KRON, 0, 1)
    with pytest.raises(ValueError):
        gs.slope(Z, m)
    for fn in CRITERIA:
        with pytest.raises(ValueError, match="different quiver"):
            fn(Z, m)


class TestStableSet:
    def test_figure1(self):
        got = {(m.i, m.j) for m in gs.stable_set(FIG1)}
        assert got == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}

    def test_kronecker(self):
        got = {(m.i, m.j) for m in gs.stable_set(kron(0, 1))}
        assert got == {(0, 1), (1, 2)}

    def test_kronecker_infinite(self):
        with pytest.raises(gs.InfiniteStableSet):
            gs.stable_set(kron(1, 0))

    def test_scale_invariance(self):
        q = gs.affine_a("-++--")
        Z = gs.make_charge(q, [3, -1, 4, 1, -5], [2, 1, 1, 3, 1])
        c = F(7, 3)
        W = gs.CentralCharge(q, tuple(c * v for v in Z.a), tuple(c * v for v in Z.b))
        assert gs.stable_set(Z) == gs.stable_set(W)

    def test_normalize_invariance(self):
        q = gs.affine_a("-++--")
        Z = gs.make_charge(q, [3, -1, 4, 1, -5], [2, 1, 1, 3, 1])
        assert gs.stable_set(Z) == gs.stable_set(gs.normalize(Z))

    def test_members_are_short_exceptional(self):
        q = gs.affine_a("-++--")
        Z = gs.make_charge(q, [3, -1, 4, 1, -5], [2, 1, 1, 3, 1])
        for m in gs.stable_set(Z):
            assert m.is_exceptional and m.length < 2 * q.n


class TestMgs:
    def test_figure1_order(self):
        seq = gs.mgs(FIG1)
        assert [(m.i, m.j) for m, _ in seq] == [(2, 3), (1, 3), (0, 1), (0, 2), (1, 2)]
        assert [s for _, s in seq] == [F(-2), F(-1, 4), F(1, 2), F(1), F(3, 2)]

    def test_kronecker_length(self):
        assert len(gs.mgs(kron(0, 1))) == 2 == gs.max_mgs_length(KRON)

    def test_universal_tie_refused(self):
        q = gs.finite_a("-+")
        with pytest.raises(gs.NonGeneric) as err:
            gs.mgs(gs.make_charge(q, [0, 0, 0], [1, 1, 1]))
        assert err.value.reason == "strict-semistable"

    def test_tie_refused(self):
        # distinct-slope stables except two parallel chords
        Z = gs.make_charge(A3, [-2, 4, -2], [1, 1, 1])
        with pytest.raises(gs.NonGeneric) as err:
            gs.mgs(Z)
        assert err.value.reason == "tie"

    def test_hom_orthogonal(self):
        seq = gs.mgs(FIG1)
        ms = [m for m, _ in seq]
        for s in range(len(ms)):
            for t in range(s + 1, len(ms)):
                assert gs.hom_dim(A3, ms[s], ms[t]) == 0


class TestSpliced:
    def test_degenerate_splice_equals_stable_set(self):
        q = gs.affine_a("-++--")
        Z = gs.make_charge(q, [3, -1, 4, 1, -5], [2, 1, 1, 3, 1])
        p = gs.SplicedPath(Z, Z)
        expected = {m for m in gs.stable_set(Z) if gs.slope(Z, m) != 0}
        assert gs.spliced_stable_set(p) == expected

    def test_mismatched_a_rejected(self):
        Z1 = kron(0, 1)
        Z2 = kron(1, 0)
        with pytest.raises(gs.SpliceInvalid):
            gs.SplicedPath(Z1, Z2)

    def test_non_charge_refused(self):
        Z = kron(0, 1)
        for pair in ((Z, None), (None, Z), (Z, Z.a)):
            with pytest.raises(gs.SpliceInvalid, match="two central charges"):
                gs.SplicedPath(*pair)

    def test_slope_zero_semistable_rejected(self):
        # normalized so that M(0,1) has slope exactly 0; refused when built
        q = gs.affine_a("+-")
        Z = gs.make_charge(q, [0, 1], [1, 1])
        with pytest.raises(gs.SpliceInvalid):
            gs.SplicedPath(Z, Z)
        infinite = gs.make_charge(q, [1, 0], [1, 1])  # no essential pair
        with pytest.raises(gs.InfiniteStableSet):
            gs.SplicedPath(infinite, infinite)

    def test_spliced_mgs_order(self):
        Z = gs.make_charge(KRON, [-1, 1], [1, 1])
        Zp = gs.make_charge(KRON, [-1, 1], [2, 3])
        seq = gs.spliced_mgs(gs.SplicedPath(Z, Zp))
        assert [(m.i, m.j) for m, _ in seq] == [(0, 1), (1, 2)]
        assert [s for _, s in seq] == [F(-1), F(1, 3)]

    def test_template_path_has_parallel_chords(self):
        # the fixed two-charge template contains exact slope ties, so it
        # yields the right stable SET but not a generic sequence
        q = gs.affine_a("+++---")
        p = gs.witness_spliced(q, 2, 5)
        assert gs.spliced_stable_set(p) == gs.build_Skl(q, 2, 5).modules
        with pytest.raises(gs.NonGeneric) as err:
            gs.spliced_mgs(p)
        assert err.value.reason == "tie"


class TestCriterionAgreement:
    def test_seeded_sample(self):
        # a quick slice of the full acceptance fuzz
        for spec in ("At:-++--", "A:-+-", "Dcyc:5"):
            q = gs.parse_quiver(spec)
            assert gs.fuzz_quiver(q, trials=40, seed=11) == []

    def test_mismatch_reporting_shape(self):
        Z = kron(0, 1)
        assert equivalence_mismatches(Z) == []

    def test_mismatch_record(self, monkeypatch):
        # M(1,3) is stable under FIG1; a wire kernel that calls it only
        # semistable must come back as one record with the three verdicts
        wire = stability._wire
        monkeypatch.setattr(
            stability, "_wire",
            lambda Z, i, j, slope: 0 if (i, j) == (1, 3) else wire(Z, i, j, slope),
        )
        bad = equivalence_mismatches(FIG1)
        assert bad == [
            {"module": {"i": 1, "j": 3}, "oracle": 1, "chord": 1, "wire": 0,
             "charge": FIG1.to_json()}
        ]

    def test_one_kernel_call_per_criterion_and_candidate(self, monkeypatch):
        calls = []
        for name in ("_oracle", "_chord", "_wire"):
            kernel = getattr(stability, name)

            def counted(Z, i, j, slope, kernel=kernel, name=name):
                calls.append(name)
                return kernel(Z, i, j, slope)

            monkeypatch.setattr(stability, name, counted)
        Z = gs.random_charge(gs.affine_a("-++--"), gs.XorShift64Star(5))
        assert equivalence_mismatches(Z) == []
        n = len(candidate_pairs(Z.quiver))
        assert len(calls) == 3 * n
        assert all(calls.count(name) == n for name in ("_oracle", "_chord", "_wire"))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_wall_membership_tracks_stability(data):
    # the path t*b - a sits inside the wall of m exactly at t = slope(m),
    # interiorly iff m is stable there
    word = data.draw(st.sampled_from(["+-", "++-", "+-+-", "-++--"]))
    q = gs.affine_a(word)
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    pos = st.fractions(min_value=F(1, 8), max_value=5, max_denominator=8)
    Z = gs.CentralCharge(
        q, data.draw(st.tuples(*[rat] * q.n)), data.draw(st.tuples(*[pos] * q.n))
    )
    m = data.draw(st.sampled_from(gs.candidate_modules(q)))
    t = gs.slope(Z, m)
    point = [t * bv - av for av, bv in zip(Z.a, Z.b)]
    membership = gs.in_wall(point, m)
    in_wall_at_all = membership in (gs.WallMembership.INTERIOR, gs.WallMembership.BOUNDARY)
    assert in_wall_at_all == gs.is_semistable_oracle(Z, m)
    assert (membership is gs.WallMembership.INTERIOR) == gs.is_stable_oracle(Z, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mgs_length_bounded(data):
    word = data.draw(st.sampled_from(["+-", "++-", "+-+-", "-++--"]))
    q = gs.affine_a(word)
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    pos = st.fractions(min_value=F(1, 8), max_value=5, max_denominator=8)
    a = data.draw(st.tuples(*[rat] * q.n))
    b = data.draw(st.tuples(*[pos] * q.n))
    Z = gs.CentralCharge(q, a, b)
    try:
        seq = gs.mgs(Z)
    except (gs.InfiniteStableSet, gs.NonGeneric):
        return
    assert len(seq) <= gs.max_mgs_length(q)


def test_max_size_stable_sets_are_canonical():
    # any stable set hitting the bound must be one of the S(k,l)
    for word in ("++--", "+--", "-++--"):
        q = gs.affine_a(word)
        families = {d.modules for d, _ in gs.enumerate_max_sets(q)}
        for k, l in gs.valid_pairs(q):
            if gs.is_linear_set(q, k, l).linear:
                got = gs.stable_set(gs.witness_linear(q, k, l))
                assert len(got) == gs.max_mgs_length(q)
                assert got in families


def test_spliced_include_semistable():
    # every slope is negative, and six modules are strictly semistable at -2
    q = gs.affine_a("-++--")
    Z = gs.make_charge(q, [-2, -2, -2, -2, -1], [1] * 5)
    p = gs.SplicedPath(Z, Z)
    stable = {(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)}
    strict = {(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)}
    assert {(m.i, m.j) for m in gs.spliced_stable_set(p)} == stable
    semis = [m for _, rows in halves(p, include_semistable=True) for m, _ in rows]
    assert {(m.i, m.j) for m in semis} == stable | strict


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_classify_matches_oracle(data):
    # denominators <= 4 make ties and strictly semistable modules common
    spec = data.draw(st.sampled_from(
        ["A:", "A:-", "A:-+", "A:+-+-", "At:+-", "At:++-", "At:-++--", "Dcyc:4", "Dcyc:6"]
    ))
    q = gs.parse_quiver(spec)
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pos = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    Z = gs.CentralCharge(
        q, data.draw(st.tuples(*[rat] * q.n)), data.draw(st.tuples(*[pos] * q.n))
    )
    if not gs.is_finite(Z):
        with pytest.raises(gs.InfiniteStableSet):
            Z._classes
        return
    records = Z._classes
    assert all(type(v) is int for record in records for v in record[:4])
    # halves is the object view of the integer records the charge keeps
    [(_, got)] = halves(Z, include_semistable=True)
    la, lb = Z._ctx.la, Z._ctx.lb
    assert got == [(gs.StringModule(q, i, j), F(dy * lb, dx * la)) for i, j, dy, dx, _ in records]
    mods = gs.candidate_modules(q)
    stable = {m for m in mods if gs.is_stable_oracle(Z, m)}
    assert [(m.i, m.j) for m, _ in got] == sorted((m.i, m.j) for m, _ in got)
    assert {(i, j) for i, j, _, _, is_stable in records if is_stable} == {(m.i, m.j) for m in stable}
    assert gs.stable_set(Z) == stable
    assert {m for m, _ in got} == {m for m in mods if gs.is_semistable_oracle(Z, m)}
    assert all(s == gs.slope(Z, m) for m, s in got)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_criteria_agree_random(data):
    word = data.draw(st.sampled_from(["+-", "++-", "+-+-", "-++--", "+++---"]))
    q = gs.affine_a(word)
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    pos = st.fractions(min_value=F(1, 8), max_value=5, max_denominator=8)
    a = data.draw(st.tuples(*[rat] * q.n))
    b = data.draw(st.tuples(*[pos] * q.n))
    Z = gs.CentralCharge(q, a, b)
    for i, j in candidate_pairs(q):
        m = gs.StringModule(q, i, j)
        assert gs.is_semistable_oracle(Z, m) == gs.is_semistable_chord(Z, m) == gs.is_semistable_wire(Z, m)
        assert gs.is_stable_oracle(Z, m) == gs.is_stable_chord(Z, m) == gs.is_stable_wire(Z, m)


def _oracle_reference(Z, i, j, slope):
    """The literal submodule check: every proper substring M(p, r) with a
    left end p (i or an interior - sign) and a right end r (j or an
    interior + sign), compared against slope, in O(L^2)."""
    ctx = Z._ctx
    ya, xb, sig = ctx.ya, ctx.xb, ctx.sig
    num, den = slope
    lefts = [i] + [t for t in range(i + 1, j) if sig[t] == gs.MINUS]
    rights = [j] + [t for t in range(i + 1, j) if sig[t] != gs.MINUS]
    verdict = 1
    for p in lefts:
        for r in rights:
            if p < r and (p, r) != (i, j):
                value = (ya[r] - ya[p]) * den - num * (xb[r] - xb[p])
                if value < 0:
                    return -1
                if value == 0:
                    verdict = 0
    return verdict


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_oracle_matches_quadratic_reference(data):
    # denominators <= 4 make ties and strictly semistable modules common
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
    for i, j in candidate_pairs(q):
        slope = _slope_pair(Z, i, j)
        assert _oracle(Z, i, j, slope) == _oracle_reference(Z, i, j, slope), (i, j)


def _green_reference(target):
    """The green sequence as it was built before the integer records:
    each half's (module, Fraction) pairs from halves, sorted by
    floor(s * 2**64), then the slope itself, then (i, j), refusing strict
    semistables and then the first adjacent pair of equal slopes."""
    entries = []
    semis = halves(target, include_semistable=True)
    for (_, semi), (_, stable) in zip(semis, halves(target)):
        strict = [m for m, s in semi if (m, s) not in stable]
        if strict:
            raise gs.NonGeneric("strict-semistable", strict)
        half = sorted(
            stable,
            key=lambda e: ((e[1].numerator << 64) // e[1].denominator, e[1], e[0].i, e[0].j),
        )
        for (m1, s1), (m2, s2) in zip(half, half[1:]):
            if s1 == s2:
                raise gs.NonGeneric("tie", [m1, m2])
        entries += half
    return gs.GreenSequence(tuple(entries))


def _outcome(fn, target):
    try:
        return fn(target).entries
    except gs.NonGeneric as err:
        return err.reason, err.culprits


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_green_matches_fraction_reference(data):
    # denominators <= 4 make ties and strictly semistable modules common
    spec = data.draw(st.sampled_from(
        ["A:", "A:-", "A:-+", "A:+-+-", "At:+-", "At:++-", "At:-++--", "At:+-+--+",
         "Dcyc:4", "Dcyc:6"]
    ))
    q = gs.parse_quiver(spec)
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pos = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    a = data.draw(st.tuples(*[rat] * q.n))
    Z = gs.CentralCharge(q, a, data.draw(st.tuples(*[pos] * q.n)))
    try:
        if data.draw(st.booleans()):
            Zp = gs.CentralCharge(q, a, data.draw(st.tuples(*[pos] * q.n)))
            target = gs.SplicedPath(Z, Zp)
            fn = gs.spliced_mgs
        else:
            target, fn = Z, gs.mgs
        expected = _outcome(_green_reference, target)
    except (gs.InfiniteStableSet, gs.SpliceInvalid):
        return
    assert _outcome(fn, target) == expected


def test_green_builds_objects_only_for_its_answer(monkeypatch):
    tied = gs.make_charge(A3, [-2, 4, -2], [1, 1, 1])
    for Z in (tied, FIG1):
        Z._classes  # the sweep, before counting
    built = []
    module = stability.StringModule

    def counting(q, i, j):
        built.append((i, j))
        return module(q, i, j)

    monkeypatch.setattr(stability, "StringModule", counting)
    with pytest.raises(gs.NonGeneric) as err:
        gs.mgs(tied)
    assert err.value.reason == "tie"
    assert built == [(m.i, m.j) for m in err.value.culprits]
    built.clear()
    seq = gs.mgs(FIG1)
    assert built == [(m.i, m.j) for m, _ in seq]


def test_sweep_builds_no_objects(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"built an object from {args!r}")

    monkeypatch.setattr(stability, "StringModule", refuse)
    monkeypatch.setattr(stability, "Fraction", refuse)
    for spec in ("A:-+-", "At:-++--", "Dcyc:6"):
        q = gs.parse_quiver(spec)
        for seed in range(5):
            Z = gs.random_charge(q, gs.XorShift64Star(seed), max_den=4)
            if gs.is_finite(Z):
                assert all(len(record) == 5 for record in stability._sweep(Z))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_criteria_answer_for_every_valid_module_length(data):
    """All six criteria answer, and agree, on any valid module: any
    length on A_n and the cycle, and affine modules up to 8n long,
    exceptional or not, far past the 3n span the integer context starts
    with."""
    spec = data.draw(st.sampled_from(
        ["A:", "A:-+", "A:+-+-", "At:+-", "At:++-", "At:-++--", "Dcyc:4", "Dcyc:6"]
    ))
    q = gs.parse_quiver(spec)
    n = q.n
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    pos = st.fractions(min_value=F(1, 8), max_value=5, max_denominator=8)
    Z = gs.CentralCharge(
        q, data.draw(st.tuples(*[rat] * n)), data.draw(st.tuples(*[pos] * n))
    )
    if q.kind is gs.QuiverKind.FINITE_A:
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i + 1, n))
    else:
        i = data.draw(st.integers(-3 * n, 3 * n))
        longest = n - 1 if q.kind is gs.QuiverKind.CYCLE else 8 * n
        j = i + data.draw(st.integers(1, longest))
    m = gs.StringModule(q, i, j)
    [stable] = {fn(Z, m) for fn in CRITERIA[0::2]}
    [semistable] = {fn(Z, m) for fn in CRITERIA[1::2]}
    assert semistable or not stable
