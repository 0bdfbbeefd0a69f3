from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from conftest import affine_quivers, cycle_quivers, finite_quivers

KRON = gs.affine_a("+-")
VIEW_QUIVERS = (
    affine_quivers(4)
    + [gs.affine_a(w) for w in ("-++--", "++-+--+")]
    + cycle_quivers(6)
    + finite_quivers(5)
)


def kron(a1, a2):
    return gs.make_charge(KRON, [a1, a2], [1, 1])


class TestMakeCharge:
    def test_accepts_mixed_inputs(self):
        q = gs.finite_a("-+")
        Z = gs.make_charge(q, ["1/2", "3/2", -2], [1, 1, 1])
        assert Z.a == (F(1, 2), F(3, 2), F(-2))
        assert Z.is_standard

    def test_rejects_nonpositive_b(self):
        q = gs.finite_a("-+")
        with pytest.raises(gs.InvalidCharge):
            gs.make_charge(q, [1, 1, 1], [1, 0, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(gs.InvalidCharge):
            gs.make_charge(KRON, [1], [1, 1])

    def test_json_round_trip(self):
        Z = gs.make_charge(gs.finite_a("-+"), ["1/2", "3/2", -2], [1, 1, 1])
        assert gs.charge_from_json(Z.quiver, Z.to_json()) == Z

    # exponent strings are refused: "1e100000" alone is a 332,193-bit integer
    @pytest.mark.parametrize(
        "value", [True, False, "1/0", "abc", 0.5, None, [1], "1e100000", "2.5E-3"]
    )
    def test_rejects_non_rationals(self, value):
        with pytest.raises(gs.InvalidCharge):
            gs.make_charge(KRON, [value, 1], [1, 1])

    @pytest.mark.parametrize(
        "data", [[1, 2], {"a": [1, 2]}, {"b": [1, 1]}, {"a": "12", "b": [1, 1]}, None]
    )
    def test_json_needs_object_of_two_lists(self, data):
        with pytest.raises(gs.InvalidCharge):
            gs.charge_from_json(KRON, data)


class TestSlope:
    def test_kronecker_regular(self):
        Z = kron(0, 1)
        assert gs.slope(Z, gs.StringModule(KRON, 0, 2)) == F(1, 2)

    def test_simple(self):
        q = gs.affine_a("-++--")
        Z = gs.make_charge(q, [3, -1, 4, 1, -5], [2, 1, 1, 3, 1])
        for i in range(5):
            assert gs.slope(Z, gs.string_module(q, i, i + 1)) == Z.a[i] / Z.b[i]

    def test_figure_slopes(self):
        q = gs.finite_a("-+")
        Z = gs.make_charge(q, ["1/2", "3/2", -2], [1, 1, 1])
        assert gs.slope(Z, gs.string_module(q, 1, 3)) == F(-1, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_periodic_cover_values(self, data):
        """x_t, y_t are the cumulative sums of b, a (periodically extended
        over the cover on the cyclic kinds), and the critical heights are
        y_t - c x_t with c = sum a / sum b."""
        q = data.draw(st.sampled_from(VIEW_QUIVERS))
        Z = data.draw(charge_strategy(q))
        n = q.n

        def cum(v, t):
            if t >= 0:
                return sum(v[(s - 1) % n] for s in range(1, t + 1))
            return -sum(v[(s - 1) % n] for s in range(t + 1, 1))

        span = range(-2 * n, 3 * n + 1) if q.is_cyclic else range(n + 1)
        for t in span:
            assert Z.x(t) == cum(Z.b, t)
            assert Z.y(t) == cum(Z.a, t)
        if not q.is_cyclic:
            with pytest.raises(ValueError):
                Z.x(n + 1)
            return
        c = sum(Z.a) / sum(Z.b)
        heights = gs.critical_heights(Z)
        assert heights == {t: cum(Z.a, t) - c * cum(Z.b, t) for t in range(1, n + 1)}


class TestNormalize:
    def test_kronecker(self):
        assert gs.normalize(kron(0, 1)).a == (F(-1, 2), F(1, 2))

    def test_already_normalized(self):
        q = gs.finite_a("-+")
        Z = gs.make_charge(q, [-2, 4, -2], [1, 1, 1])
        assert gs.normalize(Z) is Z

    def test_slope_shift(self):
        q = gs.affine_a("-++--")
        Z = gs.make_charge(q, [3, -1, 4, 1, -5], [2, 1, 1, 3, 1])
        c = gs.critical_slope(Z)
        N = gs.normalize(Z)
        assert sum(N.a) == 0
        for i, j in [(0, 1), (1, 4), (2, 6), (0, 7)]:
            m = gs.string_module(Z.quiver, i, j)
            assert gs.slope(Z, m) == gs.slope(N, m) + c


class TestCriticalLine:
    def test_critical_slope(self):
        assert gs.critical_slope(kron(0, 1)) == F(1, 2)
        q = gs.affine_a("++--")
        assert gs.critical_slope(gs.make_charge(q, [1, 1, 1, 1], [1, 1, 1, 1])) == 1
        assert gs.critical_slope(gs.normalize(kron(3, 5))) == 0

    def test_finite_a_has_no_critical_slope(self):
        with pytest.raises(gs.InvalidQuiver):
            gs.critical_slope(gs.make_charge(gs.finite_a("-+"), [1, 1, 1], [1, 1, 1]))

    def test_height_order_kronecker(self):
        assert gs.height_order(kron(0, 1)) == ((1,), (2,))

    def test_height_order_tie_group(self):
        q = gs.affine_a("++--")
        Z = gs.make_charge(q, [2, 2, 2, 2], [1, 1, 1, 1])
        assert gs.height_order(Z) == ((1, 2, 3, 4),)

    def test_height_order_example(self):
        q = gs.affine_a("++--")
        Z = gs.make_charge(q, [0, 2, 1, -3], [1, 1, 1, 1])
        assert gs.height_order(Z) == ((1, 4), (2,), (3,))

    def test_essential_pairs(self):
        assert gs.essential_pairs(kron(0, 1)) == [(1, 2)]
        assert gs.essential_pairs(kron(1, 0)) == []
        assert gs.essential_pairs(kron(1, 1)) == []  # tie is not strict

    def test_is_finite(self):
        assert gs.is_finite(kron(0, 1))
        assert not gs.is_finite(kron(1, 0))
        q5 = gs.cycle_quiver(5)
        assert gs.is_finite(gs.make_charge(q5, [3, 1, -4, 1, 5], [1] * 5))


def charge_strategy(q, max_den=12):
    rat = st.fractions(min_value=-6, max_value=6, max_denominator=max_den)
    pos = st.fractions(min_value=F(1, max_den), max_value=6, max_denominator=max_den)
    return st.tuples(
        st.tuples(*[rat] * q.n),
        st.tuples(*[pos] * q.n),
    ).map(lambda t: gs.CentralCharge(q, t[0], t[1]))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_height_order_invariances(data):
    q = gs.affine_a("-++--")
    Z = data.draw(charge_strategy(q))
    order = gs.height_order(Z)
    assert order == gs.height_order(gs.normalize(Z))
    c = data.draw(st.fractions(min_value=F(1, 6), max_value=9, max_denominator=6))
    scaled = gs.CentralCharge(q, tuple(v * c for v in Z.a), tuple(v * c for v in Z.b))
    assert order == gs.height_order(scaled)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_chord_wire_crossing_consistency(data):
    q = gs.affine_a("+--+")
    Z = data.draw(charge_strategy(q))
    i = data.draw(st.integers(0, 3))
    d = data.draw(st.integers(1, 7))
    j = i + d
    if q.sign(i) == q.sign(j) and d >= q.n:
        return
    t = Z.crossing_slope(i, j)
    # the crossing slope solves f_i = f_j and equals the chord slope
    (x1, y1), (x2, y2) = (Z.x(i), Z.y(i)), (Z.x(j), Z.y(j))
    assert y1 - t * x1 == y2 - t * x2
    assert (y2 - y1) == t * (x2 - x1)
    assert gs.slope(Z, gs.string_module(q, i, j)) == t


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_essential_pair_means_pluses_over_minuses(data):
    q = data.draw(st.sampled_from([gs.affine_a(w) for w in ("+-", "++-", "+-+-", "-++--")]))
    Z = data.draw(charge_strategy(q))
    heights = gs.critical_heights(Z)
    pairs = gs.essential_pairs(Z)
    strict_above = all(
        heights[k] > heights[l] for k in q.positives() for l in q.negatives()
    )
    # absence of an essential pair == no positive strictly below a negative
    assert (not pairs) == all(
        heights[k] >= heights[l] for k in q.positives() for l in q.negatives()
    )
    if strict_above:
        assert not gs.is_finite(Z)
