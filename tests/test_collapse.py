from fractions import Fraction

import pytest

import greenseq as gs
from conftest import affine_quivers


class TestCollapse:
    def test_sign_word_deletion(self):
        p = gs.collapse(gs.affine_a("-++--"), [1])
        assert p.target == gs.affine_a("++--")

    def test_to_cycle(self):
        # collapsing the unique negative arrow of At:++++- leaves Q_4
        p = gs.collapse(gs.affine_a("++++-"), [5])
        assert p.target == gs.cycle_quiver(4)

    def test_pi_properties(self):
        q = gs.affine_a("-++--")
        p = gs.collapse(q, [2, 4])
        assert p.pi(1) == 1
        n, n2 = q.n, p.target.n
        for i in range(-6, 12):
            assert p.pi(i + n) == p.pi(i) + n2
            assert p.pi(i) <= p.pi(i + 1) <= p.pi(i) + 1
        for t in range(1, n + 1):
            assert (p.pi(t) == p.pi(t + 1)) == (t in p.arrows)

    def test_too_many_arrows(self):
        with pytest.raises(gs.InvalidQuiver):
            gs.collapse(gs.affine_a("++--"), [1, 2, 3])

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", None, Fraction(1), True])
    def test_rejects_non_integer_arrows(self, bad):
        with pytest.raises(ValueError, match="arrows must be integers"):
            gs.collapse(gs.affine_a("-++--"), [2, bad])

    def test_degenerate_targets(self):
        with pytest.raises(gs.InvalidQuiver):
            gs.collapse(gs.affine_a("++-"), [3])  # ++ with n=2 is no cycle
        with pytest.raises(gs.InvalidQuiver):
            gs.collapse(gs.affine_a("--+"), [3])  # all-minus target


class TestProjectModule:
    def setup_method(self):
        self.q = gs.affine_a("-++--")
        self.p = gs.collapse(self.q, [1])

    def test_boundary_dies(self):
        assert gs.project_module(self.p, gs.string_module(self.q, 0, 1)) is None
        assert gs.project_module(self.p, gs.string_module(self.q, 1, 3)) is None

    def test_interior_survives(self):
        m = gs.string_module(self.q, 2, 4)
        img = gs.project_module(self.p, m)
        assert (img.i, img.j) == (self.p.pi(2), self.p.pi(4))

    def test_endpoint_shift(self):
        # collapsing arrow 2 identifies 2 and 3: M(1,3) lands on M(1,2)
        p = gs.collapse(self.q, [2])
        img = gs.project_module(p, gs.string_module(self.q, 1, 3))
        assert (img.i, img.j) == (1, 2)

    def test_identity_collapse_rejected_or_trivial(self):
        p = gs.collapse(self.q, [])
        m = gs.string_module(self.q, 1, 3)
        assert gs.project_module(p, m) == gs.string_module(p.target, 1, 3)

    def test_empty_set(self):
        assert gs.project_set(self.p, []) == frozenset()

    def test_matches_hits_and_pi(self):
        # the table-driven projection agrees with the collapsed arrows and
        # pi on every candidate module of every single-arrow collapse
        for q in affine_quivers(6, min_n=3):
            for x in range(1, q.n + 1):
                try:
                    p = gs.collapse(q, [x])
                except gs.InvalidQuiver:
                    continue
                for m in gs.candidate_modules(q):
                    if {(m.i - 1) % q.n + 1, (m.j - 1) % q.n + 1} & set(p.arrows):
                        assert gs.project_module(p, m) is None
                        continue
                    try:
                        image = gs.string_module(p.target, p.pi(m.i), p.pi(m.j))
                    except gs.InvalidModule:
                        with pytest.raises(gs.InvalidModule):
                            gs.project_module(p, m)
                    else:
                        assert gs.project_module(p, m) == image


class TestDeletionLemma:
    def test_skl_projects_to_skl(self):
        for q in affine_quivers(6, min_n=3):
            for k, l in gs.valid_pairs(q):
                for x in range(1, q.n + 1):
                    if x in (((k - 1) % q.n) + 1, ((l - 1) % q.n) + 1):
                        continue
                    try:
                        p = gs.collapse(q, [x])
                    except gs.InvalidQuiver:
                        continue
                    image = gs.project_set(p, gs.build_Skl(q, k, l).modules)
                    if p.target.kind is gs.QuiverKind.AFFINE_A:
                        expected = gs.build_Skl(p.target, p.pi(k), p.pi(l)).modules
                    else:
                        expected = gs.build_Sk(p.target, p.pi(k))
                    assert image == expected, (q.label(), k, l, x)

    def test_projected_witness_stays_stable(self):
        q = gs.affine_a("-++--")
        k, l = 2, 4
        Z = gs.witness_linear(q, k, l)
        for x in (1, 5):
            p = gs.collapse(q, [x])
            Zp = gs.project_charge(p, Z)
            target_stable = gs.stable_set(Zp)
            assert gs.project_set(p, gs.stable_set(Z)) <= target_stable

    def test_project_charge_preserves_slopes(self):
        q = gs.affine_a("-++--")
        Z = gs.make_charge(q, [3, -1, 4, 1, -5], [2, 1, 1, 3, 1])
        p = gs.collapse(q, [3])
        Zp = gs.project_charge(p, Z)
        for m in gs.candidate_modules(q):
            img = gs.project_module(p, m)
            if img is not None:
                assert gs.slope(Zp, img) == gs.slope(Z, m)
