from fractions import Fraction
from math import comb

import pytest

import greenseq as gs
from conftest import affine_quivers
from greenseq import maxsets


def pairs(mods):
    return sorted((m.i, m.j) for m in mods)


class TestBuildSkl:
    def test_table_row(self):
        q = gs.affine_a("++--")
        d = gs.build_Skl(q, 1, 3)
        assert pairs(d.modules) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
            (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
        ]
        assert d.A == (2, 3) and d.B == (0, 1)

    def test_kronecker(self):
        q = gs.affine_a("+-")
        d = gs.build_Skl(q, 1, 2)
        assert pairs(d.modules) == [(0, 1), (1, 2)]
        assert d.A == (2,) and d.B == (1,)

    def test_size_formula(self):
        for q in affine_quivers(6):
            for k, l in gs.valid_pairs(q):
                assert len(gs.build_Skl(q, k, l)) == comb(q.n, 2) + q.a * q.b

    def test_members_exceptional(self):
        for q in affine_quivers(7):
            for k, l in gs.valid_pairs(q):
                assert all(m.is_exceptional for m in gs.build_Skl(q, k, l).modules)

    def test_rejects_bad_pairs(self):
        q = gs.affine_a("++--")
        with pytest.raises(ValueError):
            gs.build_Skl(q, 3, 4)  # sign(3) is -
        with pytest.raises(ValueError):
            gs.build_Skl(q, 1, 7)  # l >= k+n
        with pytest.raises(gs.InvalidQuiver):
            gs.build_Skl(gs.cycle_quiver(4), 1, 2)

    @pytest.mark.parametrize("bad", [1.0, "1", None, Fraction(1), True])
    def test_rejects_non_integer_ends(self, bad):
        # the StringModule rule: only a plain int is an index
        q = gs.affine_a("+++---")
        for name, k, l in (("k", bad, 4), ("l", 1, bad)):
            for fn in (maxsets.check_pair, gs.build_Skl):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    fn(q, k, l)


class TestBuildSk:
    def test_q5_size(self):
        q = gs.cycle_quiver(5)
        s1 = gs.build_Sk(q, 1)
        assert len(s1) == 14
        assert s1 == frozenset(
            gs.string_module(q, i, j) for i in range(1, 6) for j in range(i + 1, 7) if j - i < 5
        )

    def test_q4_size(self):
        assert len(gs.build_Sk(gs.cycle_quiver(4), 3)) == comb(4, 2) + 3

    @pytest.mark.parametrize("bad", [2.0, "2", None, Fraction(2), True])
    def test_rejects_non_integer_k(self, bad):
        with pytest.raises(ValueError, match="k must be an integer"):
            gs.build_Sk(gs.cycle_quiver(5), bad)

    def test_pairwise_distinct(self):
        for n in (4, 5, 6, 7):
            q = gs.cycle_quiver(n)
            sets = [gs.build_Sk(q, k) for k in range(1, n + 1)]
            assert len(set(sets)) == n


class TestEnumerate:
    def test_22_pp_mm(self):
        rows = gs.enumerate_max_sets(gs.affine_a("++--"))
        assert len(rows) == 4
        assert len({cid for _, cid in rows}) == 3

    def test_22_pm_pm(self):
        rows = gs.enumerate_max_sets(gs.affine_a("+-+-"))
        assert len(rows) == 4
        assert len({cid for _, cid in rows}) == 2
        by_pair = {(d.k, d.l): d.modules for d, _ in rows}
        assert by_pair[(1, 2)] == by_pair[(3, 4)]
        assert by_pair[(1, 4)] == by_pair[(3, 6)]

    def test_all_distinct_otherwise(self):
        for q in affine_quivers(6):
            if (q.a, q.b) == (2, 2):
                continue
            rows = gs.enumerate_max_sets(q)
            assert len(rows) == q.a * q.b
            assert len({cid for _, cid in rows}) == q.a * q.b

    def test_shared_members_match_build_Skl(self):
        # enumerate_max_sets builds each member once per quiver and
        # shares it between the sets; every set is still build_Skl's
        for q in affine_quivers(7):
            for d, _ in gs.enumerate_max_sets(q):
                alone = gs.build_Skl(q, d.k, d.l)
                assert (d.A, d.B, d.modules) == (alone.A, alone.B, alone.modules)


class TestMaxLength:
    def test_values(self):
        assert gs.max_mgs_length(gs.affine_a("++---")) == 16
        assert gs.max_mgs_length(gs.affine_a("+-")) == 2
        assert gs.max_mgs_length(gs.cycle_quiver(5)) == 14
        assert gs.max_mgs_length(gs.finite_a("-+")) == 6

    def test_matches_descriptor_size(self):
        for q in affine_quivers(6):
            for d, _ in gs.enumerate_max_sets(q):
                assert len(d) == gs.max_mgs_length(q)
