from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from intertwiner import hom_dim_intertwiner


def frozen_cases():
    a2 = gs.finite_a("-")
    yield a2, (0, 2), (0, 1), 1  # P1 onto S1
    yield a2, (0, 2), (1, 2), 0  # P1 to S2
    yield a2, (1, 2), (0, 2), 1  # S2 into P1
    yield a2, (0, 1), (0, 2), 0
    a3 = gs.finite_a("-+")
    yield a3, (0, 3), (1, 3), 0  # submodule direction only
    yield a3, (1, 3), (0, 3), 1
    kron = gs.affine_a("+-")
    yield kron, (0, 1), (0, 3), 2  # both arrows point into vertex 1: two socle embeddings
    yield kron, (0, 3), (0, 1), 0
    q5 = gs.cycle_quiver(5)
    yield q5, (0, 3), (1, 3), 1
    yield q5, (1, 3), (0, 3), 0
    yield q5, (0, 4), (2, 6), 1  # wraps around the cycle


@pytest.mark.parametrize("q,m,nm,expected", list(frozen_cases()))
def test_frozen_hom_values(q, m, nm, expected):
    mm = gs.StringModule(q, *m)
    nn = gs.StringModule(q, *nm)
    assert gs.hom_dim(q, mm, nn) == expected
    assert hom_dim_intertwiner(q, mm, nn) == expected


def test_brick_endomorphisms():
    for spec in ("A:-+-", "At:-++--", "Dcyc:4"):
        q = gs.parse_quiver(spec)
        for m in gs.candidate_modules(q):
            assert gs.hom_dim(q, m, m) == 1


def small_modules(q, max_len):
    out = []
    for m in gs.candidate_modules(q):
        if m.length <= max_len:
            out.append(m)
    return out


@pytest.mark.parametrize(
    "spec", ["A:", "A:-", "A:+", "A:-+", "A:+-", "At:+-", "At:++-", "At:+--", "Dcyc:4"]
)
def test_hom_matches_intertwiner_exhaustive_small(spec):
    q = gs.parse_quiver(spec)
    mods = small_modules(q, max_len=2 * q.n - 1 if q.is_cyclic else q.n)
    for m, nm in product(mods, mods):
        if m.length + nm.length > 12:
            continue
        assert gs.hom_dim(q, m, nm) == hom_dim_intertwiner(q, m, nm), (m, nm)


affine_words = st.integers(2, 7).flatmap(
    lambda n: st.text("+-", min_size=n, max_size=n).filter(lambda w: "+" in w and "-" in w)
)
quivers = st.one_of(
    affine_words.map(gs.affine_a),
    st.text("+-", max_size=5).map(gs.finite_a),  # A_1 .. A_6
    st.integers(4, 6).map(gs.cycle_quiver),
)


def drawn_module(data, q):
    """Any string of q, exceptional or not; on the cyclic kinds drawn at
    a random cover translate, which construction shifts back."""
    n = q.n
    if q.kind is gs.QuiverKind.FINITE_A:
        i = data.draw(st.integers(0, n - 1))
        return gs.StringModule(q, i, data.draw(st.integers(i + 1, n)))
    top = n - 1 if q.kind is gs.QuiverKind.CYCLE else 2 * n - 1
    i = data.draw(st.integers(-3 * n, 3 * n))
    return gs.StringModule(q, i, i + data.draw(st.integers(1, top)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hom_matches_intertwiner_random(data):
    q = data.draw(quivers)
    m = drawn_module(data, q)
    nm = drawn_module(data, q)
    assert gs.hom_dim(q, m, nm) == hom_dim_intertwiner(q, m, nm)


@pytest.mark.parametrize("ij", [(-1, 2), (1, 4), (2, 2)])
def test_hom_rejects_out_of_range_finite_modules(ij):
    q = gs.finite_a("-+")
    good = gs.string_module(q, 0, 1)
    with pytest.raises(gs.InvalidModule):
        gs.hom_dim(q, gs.StringModule(q, *ij), good)
    with pytest.raises(gs.InvalidModule):
        gs.hom_dim(q, good, gs.StringModule(q, *ij))


def test_hom_checks_the_quiver_by_equality():
    q = gs.affine_a("-++--")
    m = gs.string_module(q, 0, 3)
    nm = gs.string_module(q, 2, 4)
    twin = gs.affine_a("-++--")
    assert twin is not q
    assert gs.hom_dim(twin, m, nm) == gs.hom_dim(q, m, nm)
    assert gs.hom_dim(q, gs.string_module(twin, 0, 3), nm) == gs.hom_dim(q, m, nm)
    other = gs.affine_a("+-+--")
    with pytest.raises(ValueError, match="different quiver"):
        gs.hom_dim(other, m, nm)
    with pytest.raises(ValueError, match="different quiver"):
        gs.hom_dim(q, m, gs.string_module(other, 2, 4))
