from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from greenseq.quivers import _module
from greenseq.stability import candidate_pairs, equivalence_mismatches

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
        m = _module(q, 1, 7)
        assert not gs.is_stable_chord(Z, m)
        assert not gs.is_stable_wire(Z, m)
        assert not gs.is_stable_oracle(Z, m)

    def test_boundary_case_agreement(self):
        # a parallel to b: every candidate is semistable, none stable but simples
        q = gs.affine_a("++--")
        Z = gs.make_charge(q, [2, 2, 2, 2], [1, 1, 1, 1])
        for i, j in candidate_pairs(q):
            m = _module(q, i, j)
            assert gs.is_semistable_chord(Z, m) and gs.is_semistable_wire(Z, m)
            stable = gs.is_stable_chord(Z, m)
            assert stable == m.is_simple
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
            assert fn(Z, m) == fn(Z, _module(q, i, j))


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
    # built directly, past the validating constructor: a negative index
    # would read the integer context from its end
    q = gs.finite_a("-+")
    Z = gs.make_charge(q, [1, -1, 2], [1, 1, 1])
    m = gs.StringModule(q, *ij)
    for fn in CRITERIA:
        with pytest.raises(gs.InvalidModule):
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
        assert list(seq.slopes()) == [F(-2), F(-1, 4), F(1, 2), F(1), F(3, 2)]

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
        ms = seq.modules()
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

    def test_slope_zero_semistable_rejected(self):
        # normalized so that M(0,1) has slope exactly 0
        q = gs.affine_a("+-")
        Z = gs.make_charge(q, [0, 1], [1, 1])
        with pytest.raises(gs.SpliceInvalid):
            gs.spliced_stable_set(gs.SplicedPath(Z, Z))

    def test_spliced_mgs_order(self):
        Z = gs.make_charge(KRON, [-1, 1], [1, 1])
        Zp = gs.make_charge(KRON, [-1, 1], [2, 3])
        seq = gs.spliced_mgs(gs.SplicedPath(Z, Zp))
        assert [(m.i, m.j) for m, _ in seq] == [(0, 1), (1, 2)]
        assert list(seq.slopes()) == [F(-1), F(1, 3)]

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
    q = gs.affine_a("+--")
    p = gs.witness_spliced(q, 1, 2)
    stables = gs.spliced_stable_set(p)
    semis = gs.spliced_stable_set(p, include_semistable=True)
    assert stables <= semis


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
            gs.classify(Z)
        return
    got = gs.classify(Z)
    mods = gs.candidate_modules(q)
    assert [(m.i, m.j) for m, _, _ in got] == sorted((m.i, m.j) for m, _, _ in got)
    assert {m for m, _, stable in got if stable} == {m for m in mods if gs.is_stable_oracle(Z, m)}
    assert {m for m, _, _ in got} == {m for m in mods if gs.is_semistable_oracle(Z, m)}
    assert all(s == gs.slope(Z, m) for m, s, _ in got)
    assert gs.stable_set(Z, include_semistable=True) == {m for m, _, _ in got}


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
        m = _module(q, i, j)
        assert gs.is_semistable_oracle(Z, m) == gs.is_semistable_chord(Z, m) == gs.is_semistable_wire(Z, m)
        assert gs.is_stable_oracle(Z, m) == gs.is_stable_chord(Z, m) == gs.is_stable_wire(Z, m)
