import re
import xml.etree.ElementTree as ET
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import greenseq as gs
from greenseq import render
from greenseq.charges import as_fraction
from greenseq.stability import _chord, _slope_pair, candidate_pairs, halves

A3 = gs.finite_a("-+")
FIG1 = gs.make_charge(A3, ["1/2", "3/2", -2], [1, 1, 1])


# ---------------------------------------------------------------------------
# reference renderer: every point an exact Fraction (the charge's rational
# views), mapped into the viewport by Fraction arithmetic, and each chord
# decided by building its module


def _ref_fmt(v: F) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(v.numerator) / Decimal(v.denominator))


def _ref_viewport(points):
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x0, y0 = min(xs), min(ys)
    sx = F(960) * F(9, 10) / ((max(xs) - x0) or F(1))
    sy = F(540) * F(9, 10) / ((max(ys) - y0) or F(1))

    def to_view(x, y):
        return _ref_fmt(48 + (x - x0) * sx), _ref_fmt(540 - (27 + (y - y0) * sy))

    return to_view


def _ref_doc(body):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="960" height="540" '
        'viewBox="0 0 960 540">\n<rect width="960" height="540" fill="#ffffff"/>\n'
        + "\n".join(body) + "\n</svg>\n"
    )


_REF_COLOR = {gs.PLUS: "#1f4fd8", gs.MINUS: "#c0392b", 0: "#000000"}


def ref_chord_svg(target, window=None):
    parts = [(Z, {m for m, _ in members}) for Z, members in halves(target)]
    q = parts[0][0].quiver
    if window is None:
        pairs = list(candidate_pairs(q))
    else:
        lo, hi = map(int, window)
        pairs = [(i, j) for i in range(lo, hi) for j in range(i + 1, hi + 1)
                 if not q.is_cyclic or j - i < q.n or q.sign(i) != q.sign(j)]
    ts = range(min(i for i, _ in pairs), max(j for _, j in pairs) + 1)
    panels = []
    for Z, _ in parts:
        pts = [(Z.x(t), Z.y(t)) for t in ts]
        if panels:
            prev = [x for x, _ in panels[-1]]
            dx = max(prev) + (max(prev) - min(prev)) / 10 - min(x for x, _ in pts)
            pts = [(x + dx, y) for x, y in pts]
        panels.append(pts)
    to_view = _ref_viewport([p for pts in panels for p in pts])
    body = []
    for (Z, members), pts in zip(parts, panels):
        view = {t: to_view(x, y) for t, (x, y) in zip(ts, pts)}
        for i, j in pairs:
            (x1, y1), (x2, y2) = view[i], view[j]
            stable = gs.StringModule(q, i, j) in members
            cls = "chord stable" if stable else "chord unstable"
            style = 'stroke-width="2"' if stable else 'stroke-width="1" stroke-dasharray="5,4"'
            body.append(f'<line class="{cls}" data-module="{i},{j}" x1="{x1}" y1="{y1}" '
                        f'x2="{x2}" y2="{y2}" stroke="#555555" {style}/>')
        for sign in (gs.PLUS, gs.MINUS):
            chain = [view[t] for t in view if q.sign(t) in (sign, 0)]
            if len(chain) > 1:
                points = " ".join(f"{vx},{vy}" for vx, vy in chain)
                body.append(f'<polyline class="boundary" fill="none" points="{points}" '
                            f'stroke="{_REF_COLOR[sign]}" stroke-width="3.5"/>')
        for t, (vx, vy) in view.items():
            color = _REF_COLOR[q.sign(t)]
            body.append(f'<circle class="vertex" data-index="{t}" cx="{vx}" cy="{vy}" r="4" '
                        f'fill="{color}"/>')
            body.append(f'<text x="{vx}" y="{vy}" dy="-8" font-size="11" '
                        f'text-anchor="middle" fill="{color}">p{t}</text>')
    return _ref_doc(body)


def ref_wire_svg(target, window=None):
    parts = halves(target)
    q = parts[0][0].quiver
    members = sorted(((m, Z, s) for Z, half in parts for m, s in half),
                     key=lambda e: (e[0].i, e[0].j))
    if window is not None:
        t_lo, t_hi = map(as_fraction, window)
    else:
        slopes = [s for _, _, s in members]
        t_lo, t_hi = min(slopes) - 1, max(slopes) + 1
    kink = {F(0)} if len(parts) > 1 and t_lo < 0 < t_hi else set()
    breaks = sorted({t_lo, t_hi} | kink)
    charges = [parts[-1][0] if t > 0 else parts[0][0] for t in breaks]
    idx_hi = max([q.n] + [m.j for m, _, _ in members])
    wires = [[(t, Z.y(i) - t * Z.x(i)) for t, Z in zip(breaks, charges)]
             for i in range(idx_hi + 1)]
    to_view = _ref_viewport([p for wire in wires for p in wire])
    body = []
    for i, wire in enumerate(wires):
        color = _REF_COLOR[q.sign(i)]
        view = [to_view(t, v) for t, v in wire]
        points = " ".join(f"{vx},{vy}" for vx, vy in view)
        body.append(f'<polyline class="wire" data-index="{i}" fill="none" points="{points}" '
                    f'stroke="{color}" stroke-width="1.5"/>')
        vx, vy = view[-1]
        body.append(f'<text x="{vx}" y="{vy}" dx="4" font-size="11" fill="{color}">L{i}</text>')
    for m, Z, s in members:
        if not t_lo <= s <= t_hi:
            continue
        vx, vy = to_view(s, Z.y(m.i) - s * Z.x(m.i))
        label = f"{m.i}{m.j}" if m.i < 10 and m.j < 10 else f"{m.i},{m.j}"
        body.append(f'<circle class="stable-crossing" data-module="{m.i},{m.j}" '
                    f'cx="{vx}" cy="{vy}" r="4" fill="#000000"/>')
        body.append(f'<text x="{vx}" y="{vy}" dy="-7" font-size="10" '
                    f'text-anchor="middle" fill="#000000">{label}</text>')
    return _ref_doc(body)


_SPECS = ["A:", "A:-", "A:-+", "A:+-+-", "A:--++-", "At:+-", "At:++-", "At:-++--",
          "At:+-+--+", "Dcyc:4", "Dcyc:6"]


def _vectors(n, max_den):
    rat = st.fractions(min_value=-4, max_value=4, max_denominator=max_den)
    pos = st.fractions(min_value=F(1, max_den), max_value=4, max_denominator=max_den)
    return st.tuples(*[rat] * n), st.tuples(*[pos] * n)


@st.composite
def render_targets(draw):
    """A finite charge or a spliced path on one of ``_SPECS``."""
    q = gs.parse_quiver(draw(st.sampled_from(_SPECS)))
    a, b = (draw(v) for v in _vectors(q.n, draw(st.sampled_from([1, 4, 64]))))
    try:
        if draw(st.booleans()):
            target = gs.CentralCharge(q, a, b)
            halves(target)  # refuses an infinite charge
            return target
        return gs.SplicedPath(gs.CentralCharge(q, a, b),
                              gs.CentralCharge(q, a, draw(_vectors(q.n, 8)[1])))
    except (gs.InfiniteStableSet, gs.SpliceInvalid):
        assume(False)


@settings(max_examples=200, deadline=None)
@given(render_targets(), st.data())
def test_renderers_match_fraction_reference(target, data):
    q = halves(target)[0][0].quiver
    n = q.n
    chord_window = data.draw(st.one_of(
        st.none(),
        # cyclic windows may start anywhere, also outside [0, n)
        st.integers(-2 * n, 2 * n).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, lo + 2 * n)))
        if q.is_cyclic else
        st.integers(0, n - 1).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, n))),
    ))
    bound = st.fractions(min_value=-8, max_value=8, max_denominator=6)
    slopes = sorted({s for _, half in halves(target) for _, s in half})
    wire_window = data.draw(st.one_of(
        st.none(),
        # a stable slope on the window's edge is drawn
        st.sampled_from(slopes).flatmap(
            lambda s: st.sampled_from([(str(s), str(s + 1)), (str(s - 1), str(s))])),
        st.tuples(bound, st.fractions(min_value=F(1, 6), max_value=8, max_denominator=6)).map(
            lambda w: (str(w[0]), str(w[0] + w[1]))),
    ))
    assert gs.render_chord_svg(target, window=chord_window) == ref_chord_svg(target, chord_window)
    assert gs.render_wire_svg(target, window=wire_window) == ref_wire_svg(target, wire_window)


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

    @pytest.mark.parametrize(
        "window", [(2, 2), (3, 1), ("a", 3), ("1.5", 3), (1,), (0, 9), (-3, 2)]
    )
    def test_bad_window_names_it(self, window):
        with pytest.raises(ValueError, match="window") as err:
            gs.render_chord_svg(FIG1, window=window)
        assert not isinstance(err.value, gs.GreenseqError)

    def test_wide_window_refused_before_listing(self, monkeypatch):
        def short_range(*args):
            # a tripwire: should the cap fail, fail here, before listing 5e17 pairs
            assert len(range(*args)) <= 1000, "the window's pairs were listed"
            return range(*args)

        monkeypatch.setattr(render, "range", short_range, raising=False)
        Z = gs.make_charge(gs.affine_a("+-"), [1, -1], [1, 1])
        with pytest.raises(ValueError, match=r"window \(0, 1000000000\) too wide") as err:
            gs.render_chord_svg(Z, window=(0, 10**9))
        assert str(render.MAX_WINDOW_PAIRS) in str(err.value)
        monkeypatch.undo()
        # the widest window under the cap draws; one wider does not
        width = max(w for w in range(1000) if w * (w + 1) // 2 <= render.MAX_WINDOW_PAIRS)
        gs.render_chord_svg(gs.make_charge(gs.cycle_quiver(4), [1, -1, 2, -2], [1, 1, 1, 1]),
                            window=(-width, 0))
        with pytest.raises(ValueError, match="too wide"):
            gs.render_chord_svg(Z, window=(5, 5 + width + 1))

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
