import re
import xml.etree.ElementTree as ET

import pytest

import greenseq as gs
from greenseq.stability import _chord, _slope_pair

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

    def test_spliced_panels_side_by_side(self):
        p = gs.witness_spliced(gs.affine_a("+++---"), 2, 5)
        cx = [float(x) for x in re.findall(r'class="vertex" data-index="-?\d+" cx="([^"]+)"',
                                           gs.render_chord_svg(p))]
        first, second = cx[: len(cx) // 2], cx[len(cx) // 2:]
        assert len(first) == len(second) > 1
        assert max(first) < min(second)

    @pytest.mark.parametrize("window", [(2, 2), (3, 1), ("a", 3), ("1.5", 3), (1,)])
    def test_bad_window_names_it(self, window):
        with pytest.raises(ValueError, match="window") as err:
            gs.render_chord_svg(FIG1, window=window)
        assert not isinstance(err.value, gs.GreenseqError)

    def test_cycle_window_draws_only_modules(self):
        # strings of length >= n are not modules of the truncated cycle;
        # this charge's chord kernel would pass the string (0, 5)
        q = gs.cycle_quiver(5)
        Z = gs.make_charge(q, [3, 4, 2, 1, "-1/3"], ["4/3", 1, "1/3", 2, 4])
        assert _chord(Z, 0, 5, _slope_pair(Z, 0, 5)) > 0
        svg = gs.render_chord_svg(Z, window=(0, 10))
        drawn = {tuple(map(int, m.split(","))): cls for cls, m in
                 re.findall(r'class="chord (\w+)" data-module="([^"]+)"', svg)}
        assert drawn and all(j - i < q.n for i, j in drawn)
        stable = {ij for ij, cls in drawn.items() if cls == "stable"}
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
        svg = gs.render_wire_svg(FIG1, window=("-3", "3"))
        assert crossings(svg) == 5
        ET.fromstring(svg)

    def test_window_leaves_out_outside_crossings(self):
        # of the five stable slopes of Figure 1 only M(1,3)'s, -1/4, lies in [-1, 0]
        svg = gs.render_wire_svg(FIG1, window=("-1", "0"))
        assert re.findall(r'class="stable-crossing" data-module="([^"]+)"', svg) == ["1,3"]
        for cx in re.findall(r'class="stable-crossing"[^>]* cx="([^"]+)"', svg):
            assert 0 <= float(cx) <= 960

    def test_spliced_window_without_zero_has_no_kink(self):
        p = gs.witness_spliced(gs.affine_a("+--"), 1, 2)
        svg = gs.render_wire_svg(p, window=("1", "3"))
        wires = re.findall(r'class="wire"[^>]* points="([^"]+)"', svg)
        assert wires and all(len(points.split()) == 2 for points in wires)

    @pytest.mark.parametrize("window", [("1/2", "1/2"), ("3", "-3"), ("a", "3"), ("1/0", "2")])
    def test_bad_window_names_it(self, window):
        with pytest.raises(ValueError, match="window") as err:
            gs.render_wire_svg(FIG1, window=window)
        assert not isinstance(err.value, gs.GreenseqError)

    def test_marks_match_chords(self):
        q = gs.cycle_quiver(4)
        Z = gs.dn_charge(q, 2)
        assert crossings(gs.render_wire_svg(Z)) == solid_chords(gs.render_chord_svg(Z))
