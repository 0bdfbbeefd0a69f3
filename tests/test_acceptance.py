"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything here is exact (set equalities, integer counts); there are no
numeric tolerances to tune.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import functools
from fractions import Fraction as F
from itertools import combinations, product
from math import comb

import pytest

import greenseq as gs
from greenseq.stability import _oracle, _slope_pair
from conftest import affine_quivers, affine_words, cycle_quivers, finite_quivers
from intertwiner import hom_dim_intertwiner


def _report(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {name}: PASS")

        return wrapped

    return deco


# -- shared witness caches (several criteria inspect the same objects) -------


@pytest.fixture(scope="module")
def spliced_witnesses():
    out = {}
    for q in affine_quivers(6):
        for k, l in gs.valid_pairs(q):
            out[(q, k, l)] = gs.witness_spliced(q, k, l)
    return out


@pytest.fixture(scope="module")
def linear_witnesses():
    out = {}
    for q in affine_quivers(7):
        for k, l in gs.valid_pairs(q):
            if gs.is_linear_set(q, k, l).linear:
                out[(q, k, l)] = gs.witness_linear(q, k, l)
    return out


@pytest.fixture(scope="module")
def reineke_charges():
    return {q: gs.reineke_charge(q) for q in finite_quivers(8)}


@pytest.fixture(scope="module")
def dn_charges():
    return {
        (q, k): gs.dn_charge(q, k) for q in cycle_quivers(8) for k in range(1, q.n + 1)
    }


# -- criteria -----------------------------------------------------------------


@_report(1, "max-length formula and spliced realization")
def test_criterion_1(spliced_witnesses):
    for q in affine_quivers(6):
        expected = comb(q.a + q.b, 2) + q.a * q.b
        for k, l in gs.valid_pairs(q):
            d = gs.build_Skl(q, k, l)
            assert len(d) == expected, (q.label(), k, l)
            path = spliced_witnesses[(q, k, l)]
            assert gs.spliced_stable_set(path) == d.modules, (q.label(), k, l)


@_report(2, "distinctness of the maximal sets")
def test_criterion_2():
    for q in affine_quivers(6):
        rows = gs.enumerate_max_sets(q)
        classes = len({cid for _, cid in rows})
        if (q.a, q.b) != (2, 2):
            assert classes == q.a * q.b == len(rows), q.label()
    assert len({c for _, c in gs.enumerate_max_sets(gs.affine_a("+-+-"))}) == 2
    assert len({c for _, c in gs.enumerate_max_sets(gs.affine_a("++--"))}) == 3
    row = gs.build_Skl(gs.affine_a("++--"), 1, 3).modules
    assert {(m.i, m.j) for m in row} == {
        (0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)
    }


@_report(3, "linearity decision and linear witnesses")
def test_criterion_3(linear_witnesses):
    flags = [v.linear for _, _, v in gs.linear_pairs(gs.affine_a("+++---"))]
    assert len(flags) == 9 and flags.count(False) == 1
    # witness_linear succeeds exactly on the linear instances (a+b <= 7)
    for q in affine_quivers(7):
        for k, l in gs.valid_pairs(q):
            verdict = gs.is_linear_set(q, k, l)
            if verdict.linear:
                Z = linear_witnesses[(q, k, l)]
                assert gs.stable_set(Z) == gs.build_Skl(q, k, l).modules
            else:
                with pytest.raises(ValueError):
                    gs.witness_linear(q, k, l)
    # Cond1/Cond2 versus the 4-index pattern: complementary for n <= 10
    for n in range(2, 11):
        for w in affine_words(n):
            q = gs.affine_a(w)
            for k, l in gs.valid_pairs(q):
                v = gs.is_linear_set(q, k, l)
                assert v.linear == (v.pattern_witness is None)
                assert v.linear == (v.satisfied_condition is not None)
                if v.pattern_witness:
                    k1, l1, l2, k2 = v.pattern_witness
                    assert k < k1 < l1 < l < l2 < k2 < k + q.n
                    assert q.sign(k1) == q.sign(k2) == gs.PLUS
                    assert q.sign(l1) == q.sign(l2) == gs.MINUS


@_report(4, "all-stable charges for every A_n orientation")
def test_criterion_4(reineke_charges):
    for q, Z in reineke_charges.items():
        assert Z.b == (1,) * q.n
        assert len(gs.stable_set(Z)) == q.n * (q.n + 1) // 2, q.label()


@_report(5, "oriented-cycle charges realize every S(k)")
def test_criterion_5(dn_charges):
    for n in range(4, 9):
        q = gs.cycle_quiver(n)
        sets = []
        for k in range(1, n + 1):
            Z = dn_charges[(q, k)]
            got = gs.stable_set(Z)
            assert got == gs.build_Sk(q, k), (n, k)
            assert len(got) == comb(n, 2) + n - 1
            sets.append(got)
        assert len(set(sets)) == n
    assert len(gs.stable_set(dn_charges[(gs.cycle_quiver(5), 1)])) == 14


@_report(6, "criterion equivalence fuzz (oracle == chord == wire)")
def test_criterion_6():
    quivers = affine_quivers(6) + finite_quivers(6) + cycle_quivers(6)
    for q in quivers:
        bad = gs.fuzz_quiver(q, trials=1000, seed=20260809)
        assert bad == [], (q.label(), bad[:1])


def _generic_charge(q, seed_index, max_den=64):
    # redraw until the n critical-line heights are pairwise distinct
    from greenseq.rng import substream

    rng = substream(20260810, seed_index)
    while True:
        Z = gs.random_charge(q, rng, max_den)
        heights = gs.critical_heights(Z)
        if len(set(heights.values())) == q.n:
            return Z


def _long_stable_exists(Z):
    q = Z.quiver
    n = q.n
    Z._widen_ctx(5 * n)  # lengths up to 4n, past the candidates' 3n
    for i in range(n):
        for d in range(2 * n, 4 * n):
            if q.sign(i) == q.sign(i + d) and d >= n:
                continue
            if _oracle(Z, i, i + d, _slope_pair(Z, i, i + d)) > 0:
                return True
    return False


@_report(7, "finiteness theorem saturation")
def test_criterion_7():
    for qi, q in enumerate(affine_quivers(5)):
        for t in range(500):
            Z = _generic_charge(q, qi * 100_000 + t)
            if gs.is_finite(Z):
                assert not _long_stable_exists(Z), (q.label(), Z.to_json())
            else:
                assert _long_stable_exists(Z), (q.label(), Z.to_json())


def _check_hom_orthogonal(q, entries):
    # entries: (module, slope) with slopes sorted non-decreasingly
    for (m1, s1), (m2, s2) in combinations(entries, 2):
        if s1 < s2:
            assert gs.hom_dim(q, m1, m2) == 0, (q.label(), m1, m2)
        elif s1 == s2:
            assert gs.hom_dim(q, m1, m2) == 0 and gs.hom_dim(q, m2, m1) == 0


@_report(8, "hom-orthogonality of produced sequences; hom oracle agreement")
def test_criterion_8(spliced_witnesses, linear_witnesses, reineke_charges, dn_charges):
    def sorted_entries(Z, mods):
        return sorted(((m, gs.slope(Z, m)) for m in mods), key=lambda e: e[1])

    for (q, k, l), path in spliced_witnesses.items():
        members = gs.spliced_stable_set(path)
        neg = [m for m in members if gs.slope(path.z, m) < 0]
        pos = [m for m in members if m not in neg]
        entries = sorted_entries(path.z, neg) + sorted_entries(path.z_prime, pos)
        _check_hom_orthogonal(q, entries)
    for (q, k, l), Z in linear_witnesses.items():
        if q.a + q.b <= 5:  # representative slice; full set is criterion 3's job
            _check_hom_orthogonal(q, sorted_entries(Z, gs.stable_set(Z)))
    for q, Z in reineke_charges.items():
        _check_hom_orthogonal(q, sorted_entries(Z, gs.stable_set(Z)))
    for (q, k), Z in dn_charges.items():
        _check_hom_orthogonal(q, sorted_entries(Z, gs.stable_set(Z)))
    # graph-map rule == intertwiner nullspace on every pair, n <= 5
    quivers = affine_quivers(5) + finite_quivers(5) + cycle_quivers(5)
    for q in quivers:
        cap = 2 * q.n - 1 if q.is_cyclic else q.n
        mods = [m for m in gs.candidate_modules(q) if m.length <= cap]
        for m, nm in product(mods, mods):
            if m.length + nm.length > 12:
                continue
            assert gs.hom_dim(q, m, nm) == hom_dim_intertwiner(q, m, nm), (q.label(), m, nm)


@_report(9, "deletion lemma: sets and witness charges project")
def test_criterion_9(linear_witnesses):
    for q in affine_quivers(6, min_n=3):
        n = q.n
        for k, l in gs.valid_pairs(q):
            kr, lr = ((k - 1) % n) + 1, ((l - 1) % n) + 1
            free = [x for x in range(1, n + 1) if x not in (kr, lr)]
            xsets = [[x] for x in free] + [list(p) for p in combinations(free, 2)]
            for xs in xsets:
                try:
                    p = gs.collapse(q, xs)
                except gs.InvalidQuiver:
                    continue  # degenerate target (too small a cycle, all-minus)
                image = gs.project_set(p, gs.build_Skl(q, k, l).modules)
                if p.target.kind is gs.QuiverKind.AFFINE_A:
                    expected = gs.build_Skl(p.target, p.pi(k), p.pi(l)).modules
                else:
                    expected = gs.build_Sk(p.target, p.pi(k))
                assert image == expected, (q.label(), k, l, xs)
    # projected witness charges keep every surviving module stable
    for (q, k, l), Z in linear_witnesses.items():
        if q.a + q.b > 6 or q.n < 3:
            continue
        n = q.n
        kr, lr = ((k - 1) % n) + 1, ((l - 1) % n) + 1
        stable = gs.stable_set(Z)
        for x in range(1, n + 1):
            if x in (kr, lr):
                continue
            try:
                p = gs.collapse(q, [x])
            except gs.InvalidQuiver:
                continue
            Zp = gs.project_charge(p, Z)
            assert gs.project_set(p, stable) <= gs.stable_set(Zp), (q.label(), k, l, x)


@_report(10, "worked three-diagram example")
def test_criterion_10():
    q = gs.finite_a("-+")
    Z = gs.make_charge(q, ["1/2", "3/2", "-2"], [1, 1, 1])
    seq = gs.mgs(Z)
    assert [(m.i, m.j) for m, _ in seq] == [(2, 3), (1, 3), (0, 1), (0, 2), (1, 2)]
    assert gs.string_module(q, 0, 3) not in gs.stable_set(Z)
    assert not gs.is_semistable_oracle(Z, gs.string_module(q, 0, 3))
    assert [s for _, s in seq] == [F(-2), F(-1, 4), F(1, 2), F(1), F(3, 2)]
