import re
import xml.etree.ElementTree as ET

import greenseq as gs

A3 = gs.finite_a("-+")
FIG1 = gs.make_charge(A3, ["1/2", "3/2", -2], [1, 1, 1])


def solid_chords(svg: str) -> int:
    return svg.count('class="chord stable"')


def dashed_chords(svg: str) -> int:
    return svg.count('class="chord unstable"')


def crossings(svg: str) -> int:
    return svg.count('class="stable-crossing"')


class TestChord:
    def test_figure1_counts(self):
        svg = gs.render_chord_svg(FIG1)
        assert solid_chords(svg) == 5
        assert dashed_chords(svg) == 1
        assert 'data-module="0,3"' in svg

    def test_dn_counts(self):
        q = gs.cycle_quiver(5)
        svg = gs.render_chord_svg(gs.dn_charge(q, 1))
        assert solid_chords(svg) == 14

    def test_deterministic(self):
        a = gs.render_chord_svg(FIG1)
        b = gs.render_chord_svg(FIG1)
        assert a == b

    def test_valid_xml(self):
        root = ET.fromstring(gs.render_chord_svg(FIG1))
        assert root.tag.endswith("svg")

    def test_spliced_two_panels(self):
        q = gs.affine_a("+++---")
        p = gs.witness_spliced(q, 2, 5)
        svg = gs.render_chord_svg(p)
        assert solid_chords(svg) == 24
        ET.fromstring(svg)

    def test_cycle_window_draws_non_modules_dashed(self):
        # strings of length >= n are not modules of the truncated cycle;
        # this charge's chord test would pass M(0,5) and M(5,10)
        q = gs.cycle_quiver(5)
        Z = gs.make_charge(q, [3, 4, 2, 1, "-1/3"], ["4/3", 1, "1/3", 2, 4])
        svg = gs.render_chord_svg(Z, gs.RenderSpec(window=(0, 10)))
        assert gs.is_stable_chord(Z, gs.StringModule(q, 0, 5))
        stable = {tuple(map(int, m.split(","))) for m in
                  re.findall(r'class="chord stable" data-module="([^"]+)"', svg)}
        assert all(j - i < q.n for i, j in stable)
        assert {(m.i, m.j) for m in gs.stable_set(Z)} <= stable

    def test_solid_equals_stable_set(self):
        q = gs.affine_a("-++--")
        Z = gs.witness_linear(q, 2, 4)
        svg = gs.render_chord_svg(Z)
        assert solid_chords(svg) == len(gs.stable_set(Z))


class TestWire:
    def test_figure1_crossings(self):
        svg = gs.render_wire_svg(FIG1)
        assert crossings(svg) == 5
        assert 'data-module="0,3"' not in svg

    def test_kronecker(self):
        q = gs.affine_a("+-")
        Z = gs.make_charge(q, [0, 1], [1, 1])
        svg = gs.render_wire_svg(Z)
        assert crossings(svg) == 2

    def test_deterministic(self):
        q = gs.affine_a("-++--")
        Z = gs.witness_linear(q, 2, 4)
        assert gs.render_wire_svg(Z) == gs.render_wire_svg(Z)

    def test_spliced_wire_valid(self):
        q = gs.affine_a("+--")
        p = gs.witness_spliced(q, 1, 2)
        svg = gs.render_wire_svg(p)
        assert crossings(svg) == len(gs.spliced_stable_set(p))
        ET.fromstring(svg)

    def test_explicit_window(self):
        spec = gs.RenderSpec(mode="wire", window=("-3", "3"))
        svg = gs.render_wire_svg(FIG1, spec)
        assert crossings(svg) == 5
        ET.fromstring(svg)

    def test_marks_match_chords(self):
        q = gs.cycle_quiver(4)
        Z = gs.dn_charge(q, 2)
        assert crossings(gs.render_wire_svg(Z)) == solid_chords(gs.render_chord_svg(Z))
