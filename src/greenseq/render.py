"""Deterministic SVG emitters for chord and wire diagrams.

The only place in the package where numbers leave exact arithmetic:
every classification (stable/unstable, colors, markers) is decided
upstream on rationals, and each drawn point is mapped into the viewport
once, as 12-significant-digit decimals, purely for emission.  Identical
inputs produce byte-identical documents.

Both renderers take a charge or a spliced path and draw it from
:func:`stability.halves`: one (charge, stable modules) pair for a
charge, two for a spliced path.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

from .charges import CentralCharge, as_fraction
from .errors import InfiniteStableSet
from .quivers import MINUS, PLUS, StringModule
from .stability import candidate_pairs, halves, is_stable_oracle

F = Fraction

VIEW_W = F(960)
VIEW_H = F(540)
MARGIN = F(5, 100)

# vertex sign -> colour; 0 is an end of A_n
_COLOR = {PLUS: "#1f4fd8", MINUS: "#c0392b", 0: "#000000"}
_STABLE_WIDTH = "2"
_UNSTABLE_WIDTH = "1"
_BOUNDARY_WIDTH = "3.5"
_DASH = "5,4"


def _fmt(v: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(v.numerator) / Decimal(v.denominator))


def _viewport(points):
    """Map the bounding box of exact points into the viewport; returns
    ``to_view(x, y) -> (svg x, svg y)`` as decimal strings."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x0, y0 = min(xs), min(ys)
    sx = VIEW_W * (1 - 2 * MARGIN) / ((max(xs) - x0) or F(1))
    sy = VIEW_H * (1 - 2 * MARGIN) / ((max(ys) - y0) or F(1))

    def to_view(x: Fraction, y: Fraction) -> tuple[str, str]:
        # y flips: SVG grows downward
        vx = VIEW_W * MARGIN + (x - x0) * sx
        vy = VIEW_H - (VIEW_H * MARGIN + (y - y0) * sy)
        return _fmt(vx), _fmt(vy)

    return to_view


def _doc(body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(VIEW_W)}" height="{_fmt(VIEW_H)}" '
        f'viewBox="0 0 {_fmt(VIEW_W)} {_fmt(VIEW_H)}">\n'
        f'<rect width="{_fmt(VIEW_W)}" height="{_fmt(VIEW_H)}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _bounds(window, parse) -> tuple:
    """The window (T0, T1) parsed, or a ValueError that names it."""
    try:
        lo, hi = map(parse, window)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad window {window!r}: {exc}") from None
    if lo >= hi:
        raise ValueError(f"empty window {window!r}: need T0 < T1")
    return lo, hi


def _chord_pairs(q, window) -> list[tuple[int, int]]:
    """The candidates, or every exceptional module with both ends in the
    window: on the cyclic kinds, shorter than n or with unequal end signs."""
    if window is None:
        return list(candidate_pairs(q))
    lo, hi = _bounds(window, int)
    return [
        (i, j)
        for i in range(lo, hi)
        for j in range(i + 1, hi + 1)
        if not q.is_cyclic or j - i < q.n or q.sign(i) != q.sign(j)
    ]


def _chord_panel(Z: CentralCharge, members, pairs, view: dict) -> list[str]:
    """Chords, boundary chains and vertices of Z, read from ``view``, its
    vertices in the viewport; ``members`` None decides each chord alone."""
    q = Z.quiver
    body = []
    # candidate chords: solid when stable, dashed otherwise
    for i, j in pairs:
        (x1, y1), (x2, y2) = view[i], view[j]
        m = StringModule(q, i, j)
        stable = is_stable_oracle(Z, m) if members is None else m in members
        cls = "chord stable" if stable else "chord unstable"
        width = _STABLE_WIDTH if stable else _UNSTABLE_WIDTH
        dash = "" if stable else f' stroke-dasharray="{_DASH}"'
        body.append(
            f'<line class="{cls}" data-module="{i},{j}" '
            f'x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#555555" stroke-width="{width}"{dash}/>'
        )
    # boundary polylines: the upper chain through non-negative vertices,
    # the lower chain through non-positive ones
    for sign in (PLUS, MINUS):
        chain = [view[t] for t in view if q.sign(t) in (sign, 0)]
        if len(chain) > 1:
            points = " ".join(f"{vx},{vy}" for vx, vy in chain)
            body.append(
                f'<polyline class="boundary" fill="none" points="{points}" '
                f'stroke="{_COLOR[sign]}" stroke-width="{_BOUNDARY_WIDTH}"/>'
            )
    for t, (vx, vy) in view.items():
        color = _COLOR[q.sign(t)]
        body.append(
            f'<circle class="vertex" data-index="{t}" cx="{vx}" cy="{vy}" r="4" '
            f'fill="{color}"/>'
        )
        body.append(
            f'<text x="{vx}" y="{vy}" dy="-8" font-size="11" '
            f'text-anchor="middle" fill="{color}">p{t}</text>'
        )
    return body


def render_chord_svg(target, window=None) -> str:
    """Chord diagram over the candidates, or over every string with ends
    in the integer ``window`` (T0, T1).  A spliced path draws one panel
    per half, side by side in one viewport."""
    try:
        # sets for the membership test per chord
        parts = [(Z, {m for m, _ in members}) for Z, members in halves(target)]
    except InfiniteStableSet:
        parts = [(target, None)]  # no finite stable set to look up
    pairs = _chord_pairs(parts[0][0].quiver, window)
    ts = range(min(i for i, _ in pairs), max(j for _, j in pairs) + 1)
    panels = []
    for Z, _ in parts:
        pts = [Z.dual_vertex(t) for t in ts]
        if panels:
            # start right of the previous panel, a tenth of its width apart
            prev = [x for x, _ in panels[-1]]
            dx = max(prev) + (max(prev) - min(prev)) / 10 - min(x for x, _ in pts)
            pts = [(x + dx, y) for x, y in pts]
        panels.append(pts)
    to_view = _viewport([p for pts in panels for p in pts])
    body = []
    for (Z, members), pts in zip(parts, panels):
        view = {t: to_view(x, y) for t, (x, y) in zip(ts, pts)}
        body += _chord_panel(Z, members, pairs, view)
    return _doc(body)


def render_wire_svg(target, window=None) -> str:
    """Wire diagram with stable crossings marked, over the rational
    ``window`` (T0, T1) of t or around every stable slope.  A spliced path
    follows its second charge for t > 0, so its wires kink at slope 0."""
    parts = halves(target)
    q = parts[0][0].quiver
    members = sorted(
        ((m, Z, s) for Z, half in parts for m, s in half),
        key=lambda e: (e[0].i, e[0].j),
    )
    if window is not None:
        t_lo, t_hi = _bounds(window, as_fraction)
    else:
        # never empty: every simple module is stable, in one half or the other
        slopes = [s for _, _, s in members]
        t_lo, t_hi = min(slopes) - 1, max(slopes) + 1
    # a spliced path's wires kink at t = 0, if the window reaches it
    kink = {F(0)} if len(parts) > 1 and t_lo < 0 < t_hi else set()
    breaks = sorted({t_lo, t_hi} | kink)
    charges = [parts[-1][0] if t > 0 else parts[0][0] for t in breaks]
    idx_hi = max([q.n] + [m.j for m, _, _ in members])
    wires = [
        [(t, Z.wire_value(i, t)) for t, Z in zip(breaks, charges)] for i in range(idx_hi + 1)
    ]
    to_view = _viewport([p for wire in wires for p in wire])
    # the viewport spans the window only: crossings outside it are left out
    members = [e for e in members if t_lo <= e[2] <= t_hi]

    body = []
    for i, wire in enumerate(wires):
        color = _COLOR[q.sign(i)]
        view = [to_view(t, v) for t, v in wire]
        points = " ".join(f"{vx},{vy}" for vx, vy in view)
        body.append(
            f'<polyline class="wire" data-index="{i}" fill="none" points="{points}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        vx, vy = view[-1]
        body.append(
            f'<text x="{vx}" y="{vy}" dx="4" font-size="11" fill="{color}">L{i}</text>'
        )
    for m, Z, s in members:
        vx, vy = to_view(s, Z.wire_value(m.i, s))
        label = f"{m.i}{m.j}" if m.i < 10 and m.j < 10 else f"{m.i},{m.j}"
        body.append(
            f'<circle class="stable-crossing" data-module="{m.i},{m.j}" '
            f'cx="{vx}" cy="{vy}" r="4" fill="#000000"/>'
        )
        body.append(
            f'<text x="{vx}" y="{vy}" dy="-7" font-size="10" '
            f'text-anchor="middle" fill="#000000">{label}</text>'
        )
    return _doc(body)
