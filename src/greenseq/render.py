"""Deterministic SVG emitters for chord and wire diagrams.

Every classification (stable/unstable, colors, markers) is decided
upstream on exact rationals, and every drawn coordinate stays exact up
to its printing.  Points are integer quotients read off the charge's
integer context: dual vertex p_t is (xb_t / lb, ya_t / la), the wire
f_i at a break t = u/v is (ya_i*v*lb - u*la*xb_i) / (la*lb*v), and
the crossing of M(i, j), at slope dy*lb/(dx*la) with (dy, dx) the
integer slope pair, has height (ya_i*dx - dy*xb_i) / (dx*la).  The
viewport map is fixed once per document from its bounding box,

    vx = 48 + 864 * (x - x0) / span_x,    vy = 513 - 486 * (y - y0) / span_y,

(a 960 x 540 view with 5% margins; y flips because SVG grows
downward), and turns an integer quotient into another one with a few
integer products.  Each coordinate leaves exact arithmetic once, as
one 12-significant-digit decimal division; that division is correctly
rounded, so an unreduced quotient prints like its reduced form.
Identical inputs produce byte-identical documents.

Both renderers take a charge or a spliced path and draw it from
:func:`stability.halves`: one (charge, stable modules) pair for a
charge, two for a spliced path.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from operator import itemgetter

from .charges import CentralCharge, as_fraction
from .errors import InfiniteStableSet
from .quivers import MINUS, PLUS, StringModule
from .stability import candidate_pairs, halves, is_stable_oracle

F = Fraction

VIEW_W = 960
VIEW_H = 540
# the drawing fills the view but a 5% margin on every side
_X_START, _X_LEN = VIEW_W // 20, VIEW_W * 9 // 10
_Y_START, _Y_LEN = VIEW_H - VIEW_H // 20, -(VIEW_H * 9 // 10)

# vertex sign -> colour; 0 is an end of A_n
_COLOR = {PLUS: "#1f4fd8", MINUS: "#c0392b", 0: "#000000"}
_BOUNDARY_WIDTH = "3.5"
# a chord line's text before and after its ends, by stability: solid
# when stable, thinner and dashed otherwise
_CHORD_HEAD = {
    True: '<line class="chord stable" data-module="',
    False: '<line class="chord unstable" data-module="',
}
_CHORD_TAIL = {
    True: ' stroke="#555555" stroke-width="2"/>',
    False: ' stroke="#555555" stroke-width="1" stroke-dasharray="5,4"/>',
}

# shared by every call: a division only raises its flags, which nothing reads
_DECIMAL = Context(prec=12)

# a chord window (T0, T1) of width W = T1 - T0 holds W(W+1)/2 pairs (i, j);
# a wider one is refused before any pair is listed
MAX_WINDOW_PAIRS = 50_000


def _axis(lo: Fraction, span: Fraction, start: int, length: int):
    """The viewport map v -> start + length * (v - lo) / span of one axis
    (a zero span counts as 1), on v = num/den with den > 0: returns
    ``to_view(num, den)``, the quotient (p*num + q*den)/(r*den) for
    integers p, q and r > 0 fixed here, as a 12-significant-digit decimal
    string."""
    span = span or F(1)
    k = length * span.denominator
    r = lo.denominator * span.numerator
    p = k * lo.denominator
    q = start * r - k * lo.numerator
    divide = _DECIMAL.divide

    def to_view(num: int, den: int) -> str:
        return str(divide(Decimal(p * num + q * den), Decimal(r * den)))

    return to_view


def _doc(body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEW_W}" height="{VIEW_H}" '
        f'viewBox="0 0 {VIEW_W} {VIEW_H}">\n'
        f'<rect width="{VIEW_W}" height="{VIEW_H}" fill="#ffffff"/>\n'
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
    if not q.is_cyclic and (lo < 0 or hi > q.n):
        raise ValueError(f"bad window {window!r}: chord ends on {q.label()} lie in [0, {q.n}]")
    count = (hi - lo) * (hi - lo + 1) // 2
    if count > MAX_WINDOW_PAIRS:
        raise ValueError(f"window {window!r} too wide: {count} pairs, more than {MAX_WINDOW_PAIRS}")
    return [
        (i, j)
        for i in range(lo, hi)
        for j in range(i + 1, hi + 1)
        if not q.is_cyclic or j - i < q.n or q.sign(i) != q.sign(j)
    ]


def _chord_panel(Z: CentralCharge, stable: list[bool], pairs, view: dict) -> list[str]:
    """Chords (solid where ``stable``), boundary chains and vertices of Z,
    read from ``view``, its vertices in the viewport."""
    q = Z.quiver
    starts = {t: f'x1="{vx}" y1="{vy}"' for t, (vx, vy) in view.items()}
    ends = {t: f'x2="{vx}" y2="{vy}"' for t, (vx, vy) in view.items()}
    body = [
        f'{_CHORD_HEAD[solid]}{i},{j}" {starts[i]} {ends[j]}{_CHORD_TAIL[solid]}'
        for (i, j), solid in zip(pairs, stable)
    ]
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
        parts = halves(target)
    except InfiniteStableSet:
        parts = [(target, None)]  # no finite stable set to look up
    q = parts[0][0].quiver
    n = q.n
    pairs = _chord_pairs(q, window)
    ts = range(min(pairs)[0], max(pairs, key=itemgetter(1))[1] + 1)
    # per panel: its charge and members, (ya_t, xb_t) for t in ts, x offset
    panels = []
    x_ext, y_ext = [], []
    for Z, members in parts:
        ctx = Z._ctx
        cum = [Z._cum(t) for t in ts]
        xs, ys = [x for _, x in cum], [y for y, _ in cum]
        lo, hi = F(min(xs), ctx.lb), F(max(xs), ctx.lb)
        # start right of the previous panel, a tenth of its width apart
        off = x_ext[-1] + (x_ext[-1] - x_ext[-2]) / 10 - lo if panels else 0
        panels.append((Z, members, cum, off))
        x_ext += [lo + off, hi + off]
        y_ext += [F(min(ys), ctx.la), F(max(ys), ctx.la)]
    x_lo, y_lo = min(x_ext), min(y_ext)
    x_span = max(x_ext) - x_lo
    y_view = _axis(y_lo, max(y_ext) - y_lo, _Y_START, _Y_LEN)
    body = []
    for Z, members, cum, off in panels:
        ctx = Z._ctx
        x_view = _axis(x_lo - off, x_span, _X_START, _X_LEN)
        view = {t: (x_view(x, ctx.lb), y_view(y, ctx.la)) for t, (y, x) in zip(ts, cum)}
        if members is None:
            stable = [is_stable_oracle(Z, StringModule(q, i, j)) for i, j in pairs]
        else:
            # canonical ends: a cyclic module M(i, j) is M(i % n, j - i + i % n);
            # on A_n every i < n, so the key is (i, j)
            keys = {(m.i, m.j) for m, _ in members}
            stable = [(i % n, j - i + i % n) in keys for i, j in pairs]
        body += _chord_panel(Z, stable, pairs, view)
    return _doc(body)


def render_wire_svg(target, window=None) -> str:
    """Wire diagram with stable crossings marked, over the rational
    ``window`` (T0, T1) of t or around every stable slope.  A spliced path
    follows its second charge for t > 0, so its wires kink at slope 0."""
    parts = halves(target)
    q = parts[0][0].quiver
    # (i, j, u, v, h) per member M(i, j): wires i and j cross at t = u/v,
    # its slope, at height h/v
    members = []
    for Z, half in parts:
        ctx = Z._ctx
        ya, xb = ctx.ya, ctx.xb
        for m, _ in half:
            dy, dx = ya[m.j] - ya[m.i], xb[m.j] - xb[m.i]
            members.append((m.i, m.j, dy * ctx.lb, dx * ctx.la, ya[m.i] * dx - dy * xb[m.i]))
    members.sort(key=itemgetter(0, 1))
    if window is not None:
        t_lo, t_hi = _bounds(window, as_fraction)
    else:
        # never empty: every simple module is stable, in one half or the
        # other; slopes compare by cross-multiplying (v > 0)
        lo = hi = members[0][2:4]
        for _, _, u, v, _ in members:
            if u * lo[1] < lo[0] * v:
                lo = (u, v)
            elif u * hi[1] > hi[0] * v:
                hi = (u, v)
        t_lo, t_hi = F(*lo) - 1, F(*hi) + 1
    # a spliced path's wires kink at t = 0, if the window reaches it
    kink = {F(0)} if len(parts) > 1 and t_lo < 0 < t_hi else set()
    breaks = sorted({t_lo, t_hi} | kink)
    idx_hi = max([q.n] + [j for _, j, _, _, _ in members])
    # wire values at each break t = u/v, over la*lb*v
    columns, y_ext = [], []
    for t in breaks:
        ctx = (parts[-1][0] if t > 0 else parts[0][0])._ctx
        u, v = t.numerator, t.denominator
        ya_scale, xb_scale = ctx.lb * v, ctx.la * u
        den = ctx.la * ctx.lb * v
        nums = [ya * ya_scale - xb_scale * xb for ya, xb in zip(ctx.ya[: idx_hi + 1], ctx.xb)]
        columns.append((u, v, nums, den))
        y_ext += [F(min(nums), den), F(max(nums), den)]
    x_view = _axis(t_lo, t_hi - t_lo, _X_START, _X_LEN)
    y_lo = min(y_ext)
    y_view = _axis(y_lo, max(y_ext) - y_lo, _Y_START, _Y_LEN)
    view = []
    for u, v, nums, den in columns:
        vx = x_view(u, v)
        view.append([(vx, y_view(num, den)) for num in nums])
    body = []
    for i in range(idx_hi + 1):
        color = _COLOR[q.sign(i)]
        points = " ".join(f"{col[i][0]},{col[i][1]}" for col in view)
        body.append(
            f'<polyline class="wire" data-index="{i}" fill="none" points="{points}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        vx, vy = view[-1][i]
        body.append(
            f'<text x="{vx}" y="{vy}" dx="4" font-size="11" fill="{color}">L{i}</text>'
        )
    # the viewport spans the window only: crossings outside it are left out
    lo_n, lo_d, hi_n, hi_d = t_lo.numerator, t_lo.denominator, t_hi.numerator, t_hi.denominator
    for i, j, u, v, h in members:
        if not (lo_n * v <= u * lo_d and u * hi_d <= hi_n * v):
            continue
        vx, vy = x_view(u, v), y_view(h, v)
        label = f"{i}{j}" if i < 10 and j < 10 else f"{i},{j}"
        body.append(
            f'<circle class="stable-crossing" data-module="{i},{j}" '
            f'cx="{vx}" cy="{vy}" r="4" fill="#000000"/>'
        )
        body.append(
            f'<text x="{vx}" y="{vy}" dy="-7" font-size="10" '
            f'text-anchor="middle" fill="#000000">{label}</text>'
        )
    return _doc(body)
