from fractions import Fraction
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs


def mods(pairs, q):
    return frozenset(gs.string_module(q, i, j) for i, j in pairs)


class TestParse:
    def test_affine(self):
        q = gs.parse_quiver("At:-++--")
        assert q.kind is gs.QuiverKind.AFFINE_A
        assert (q.n, q.a, q.b) == (5, 2, 3)

    def test_finite(self):
        q = gs.parse_quiver("A:-+")
        assert q.kind is gs.QuiverKind.FINITE_A
        assert q.n == 3
        # 1 -> 2 <- 3
        assert q.sign(1) == gs.MINUS and q.sign(2) == gs.PLUS
        assert q.sign(0) == 0 and q.sign(3) == 0

    def test_cycle(self):
        q = gs.parse_quiver("Dcyc:5")
        assert q.kind is gs.QuiverKind.CYCLE and q.n == 5
        assert all(q.sign(t) == gs.PLUS for t in range(-3, 12))

    def test_affine_needs_both_signs(self):
        with pytest.raises(gs.InvalidQuiver):
            gs.parse_quiver("At:+++")

    def test_cycle_needs_4(self):
        with pytest.raises(gs.InvalidQuiver):
            gs.parse_quiver("Dcyc:3")
        for n in (3, 0, -5):
            with pytest.raises(gs.InvalidQuiver, match="needs n >= 4"):
                gs.cycle_quiver(n)

    def test_huge_cycle_refused_before_allocating(self):
        # just over the cap first: were the cap missing, that case would
        # fail on 8 MB of signs before the huge one tried to allocate
        for spec in (f"Dcyc:{gs.quivers.MAX_CYCLE_SIZE + 1}", "Dcyc:100000000000"):
            with pytest.raises(gs.InvalidQuiver, match=f"cap of {gs.quivers.MAX_CYCLE_SIZE}"):
                gs.parse_quiver(spec)
        with pytest.raises(gs.InvalidQuiver, match="cap"):
            gs.cycle_quiver(10**11)

    def test_malformed(self):
        for bad in ("A-+", "Zt:++-", "At:+x-", "Dcyc:x"):
            with pytest.raises(gs.InvalidQuiver):
                gs.parse_quiver(bad)

    def test_json_round_trip(self):
        # the JSON names the quiver: its kind with the sign word or the size
        for spec in ("A:-+", "At:-++--", "Dcyc:4", "A:"):
            q = gs.parse_quiver(spec)
            data = q.to_json()
            assert gs.parse_quiver(f"{data['kind']}:{data.get('signs', data['n'])}") == q

    def test_periodic_sign(self):
        q = gs.parse_quiver("At:-++--")
        for t in range(-10, 15):
            assert q.sign(t) == q.sign(t + 5)


class TestStringModule:
    def test_full_interval_dim(self):
        q = gs.finite_a("-+")
        assert gs.string_module(q, 0, 3).dim_vector() == (1, 1, 1)

    def test_affine_winding_dim(self):
        q = gs.affine_a("-++--")
        assert gs.string_module(q, 0, 7).dim_vector() == (2, 2, 1, 1, 1)

    def test_non_exceptional_rejected(self):
        q = gs.affine_a("-++--")
        assert q.sign(1) == q.sign(6) == gs.MINUS
        with pytest.raises(gs.InvalidModule):
            gs.string_module(q, 1, 6)

    def test_cycle_length_cap(self):
        q = gs.cycle_quiver(4)
        gs.string_module(q, 0, 3)
        with pytest.raises(gs.InvalidModule):
            gs.string_module(q, 0, 4)

    def test_finite_bounds(self):
        q = gs.finite_a("-+")
        with pytest.raises(gs.InvalidModule):
            gs.string_module(q, -1, 2)
        with pytest.raises(gs.InvalidModule):
            gs.string_module(q, 1, 4)
        with pytest.raises(gs.InvalidModule):
            gs.string_module(q, 2, 2)

    def test_canonicalize(self):
        q = gs.affine_a("++--")
        m = gs.string_module(q, 5, 7)
        assert (m.i, m.j) == (1, 3)
        assert gs.canonicalize(q, m) == m
        assert gs.string_module(q, -1, 2) == gs.string_module(q, 3, 6)

    def test_canonical_equality_is_set_equality(self):
        q = gs.affine_a("++--")
        assert len({gs.string_module(q, 0, 2), gs.string_module(q, 4, 6)}) == 1


class TestSubQuot:
    def test_submodules_a3(self):
        q = gs.finite_a("-+")
        m = gs.string_module(q, 0, 3)
        assert gs.indecomposable_submodules(q, m) == mods([(0, 3), (0, 2), (1, 3), (1, 2)], q)

    def test_simple_has_only_itself(self):
        for q in (gs.finite_a("-+"), gs.affine_a("+-"), gs.cycle_quiver(4)):
            m = gs.string_module(q, 1, 2)
            assert gs.indecomposable_submodules(q, m) == {m}

    def test_kronecker_submodule(self):
        # M(0,2) is a string but not exceptional; the closure still handles it
        q = gs.affine_a("+-")
        m = gs.StringModule(q, 0, 2)
        assert gs.indecomposable_submodules(q, m) == {m, gs.string_module(q, 0, 1)}

    def test_cycle_uniserial(self):
        q = gs.cycle_quiver(5)
        m = gs.string_module(q, 1, 4)
        assert gs.indecomposable_submodules(q, m) == mods([(1, 2), (1, 3), (1, 4)], q)

    def test_closure_may_contain_non_exceptional_strings(self):
        q = gs.affine_a("++-")
        m = gs.string_module(q, 1, 6)
        subs = gs.indecomposable_submodules(q, m)
        culprit = gs.StringModule(q, 1, 5)
        assert culprit in subs and not culprit.is_exceptional

    @pytest.mark.parametrize(
        "spec", ["A:", "A:-+", "A:+--+", "At:+-", "At:++-", "At:-++--", "Dcyc:4", "Dcyc:5"]
    )
    def test_is_exceptional_sign_rule(self, spec):
        # non-exceptional: a cyclic quiver, equal end signs and j - i >= n
        q = gs.parse_quiver(spec)
        n = q.n
        for i in range(-3 * n, 3 * n + 1):
            for j in range(i + 1, 3 * n + 1):
                try:
                    m = gs.StringModule(q, i, j)
                except gs.InvalidModule:
                    continue
                rule = not (q.is_cyclic and q.sign(i) == q.sign(j) and j - i >= n)
                assert m.is_exceptional == rule, (i, j)

    def test_dim_vector_monotone(self):
        q = gs.affine_a("-++--")
        m = gs.string_module(q, 0, 7)
        dim = m.dim_vector()
        for sub in gs.indecomposable_submodules(q, m):
            assert all(a <= b for a, b in zip(sub.dim_vector(), dim))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(1, 10), st.integers(-3, 3))
def test_canonicalize_idempotent_and_shift_invariant(i, d, s):
    q = gs.affine_a("-++--")
    if q.sign(i) == q.sign(i + d) and d >= q.n:
        return
    m = gs.string_module(q, i, i + d)
    assert 0 <= m.i < q.n
    assert gs.canonicalize(q, m) == m
    assert gs.string_module(q, i + s * q.n, i + d + s * q.n) == m


class TestModuleGate:
    """Building a StringModule is the one validity check: no public
    function sees an invalid module."""

    def test_empty_and_reversed_finite_modules(self):
        # slope used to divide by zero on M(2,2) and answer -1 for M(2,1)
        q = gs.finite_a("-+")
        Z = gs.make_charge(q, [1, -1, 2], [1, 1, 1])
        for ij in ((2, 2), (2, 1)):
            with pytest.raises(gs.InvalidModule):
                gs.slope(Z, gs.StringModule(q, *ij))

    def test_overlong_cycle_module(self):
        # the criteria, hom_dim and slope used to answer for M(0,7) on
        # Dcyc_4, while indecomposable_submodules raised
        q = gs.cycle_quiver(4)
        with pytest.raises(gs.InvalidModule):
            gs.StringModule(q, 0, 7)

    def test_finite_module_outside_the_quiver(self):
        # in_wall and dim_vector used to answer for M(-1,2) on A_3
        q = gs.finite_a("-+")
        with pytest.raises(gs.InvalidModule):
            gs.in_wall([0, 0, 0], gs.StringModule(q, -1, 2))
        with pytest.raises(gs.InvalidModule):
            gs.StringModule(q, -1, 2).dim_vector()

    @pytest.mark.parametrize("end", [0.5, Fraction(1, 2), "1", None])
    def test_non_integer_ends(self, end):
        # slope, the criteria and dim_vector used to raise TypeError for
        # M(0.5, 2) on A_3
        q = gs.finite_a("-+")
        for ij in ((end, 2), (0, end)):
            with pytest.raises(gs.InvalidModule):
                gs.StringModule(q, *ij)

    def test_hash_ignores_the_quiver(self):
        q = gs.affine_a("++--")
        m = gs.StringModule(q, 4, 6)
        assert hash(m) == hash((0, 2))
        assert m != gs.StringModule(gs.affine_a("+-+-"), 0, 2)


GATE_QUIVERS = [
    gs.parse_quiver(spec) for spec in ("A:-+", "A:+-+-", "At:+-", "At:-++--", "Dcyc:4", "Dcyc:6")
]
GATE_CRITERIA = (
    gs.is_stable_oracle,
    gs.is_semistable_oracle,
    gs.is_stable_chord,
    gs.is_semistable_chord,
    gs.is_stable_wire,
    gs.is_semistable_wire,
)


GATE_ENDS = st.one_of(st.integers(-20, 20), st.sampled_from([0.5, Fraction(1, 2), "1", None]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GATE_QUIVERS), GATE_ENDS, GATE_ENDS)
def test_every_built_module_is_answered(q, i, j):
    try:
        m = gs.StringModule(q, i, j)
    except gs.InvalidModule:
        return
    if q.is_cyclic:
        assert 0 <= m.i < q.n
    Z = gs.make_charge(q, [(-1) ** t * (t + 1) for t in range(q.n)], [1] * q.n)
    s = gs.slope(Z, m)
    for fn in GATE_CRITERIA:
        fn(Z, m)
    assert gs.hom_dim(q, m, m) >= 1
    gs.in_wall([s * bv - av for av, bv in zip(Z.a, Z.b)], m)
    assert sum(m.dim_vector()) == m.length
    assert m in gs.indecomposable_submodules(q, m)


def test_all_lists_no_submodule():
    # importing the package binds its submodules (charges, ..., stability)
    # as attributes; they are not public names
    assert [name for name in gs.__all__ if isinstance(getattr(gs, name), ModuleType)] == []
    assert {"Quiver", "StringModule", "witness_linear", "stable_set"} <= set(gs.__all__)
