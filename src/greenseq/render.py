"""Deterministic SVG emitters for chord and wire diagrams.

The only place in the package where numbers leave exact arithmetic:
every classification (stable/unstable, colors, markers) is decided
upstream on rationals, and coordinates are converted to 12-significant-
digit decimals purely for emission.  Identical inputs produce byte-
identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from .charges import CentralCharge, as_fraction
from .errors import InfiniteStableSet
from .quivers import MINUS, PLUS, QuiverKind, StringModule, canonicalize
from .stability import (
    SplicedPath,
    candidate_modules,
    is_stable_oracle,
    modules_sorted,
    spliced_halves,
    stable_set,
)

F = Fraction

VIEW_W = F(960)
VIEW_H = F(540)
MARGIN = F(5, 100)


@dataclass(frozen=True)
class RenderStyle:
    positive_color: str = "#1f4fd8"
    negative_color: str = "#c0392b"
    endpoint_color: str = "#000000"
    stable_width: str = "2"
    unstable_width: str = "1"
    boundary_width: str = "3.5"
    dash: str = "5,4"


@dataclass(frozen=True)
class RenderSpec:
    mode: str = "chord"  # "chord" | "wire"
    window: tuple | None = None  # index range (chord) or t-range (wire)
    style: RenderStyle = field(default_factory=RenderStyle)


def _fmt(v: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(v.numerator) / Decimal(v.denominator))


class _Canvas:
    """Collects exact points, then maps their bounding box into the viewport."""

    def __init__(self):
        self.pts: list[tuple[Fraction, Fraction]] = []

    def see(self, x: Fraction, y: Fraction) -> None:
        self.pts.append((x, y))

    def transform(self):
        xs = [p[0] for p in self.pts]
        ys = [p[1] for p in self.pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        w = (x1 - x0) or F(1)
        h = (y1 - y0) or F(1)
        inner_w = VIEW_W * (1 - 2 * MARGIN)
        inner_h = VIEW_H * (1 - 2 * MARGIN)
        sx = inner_w / w
        sy = inner_h / h

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


def _vertex_color(q, t: int, style: RenderStyle) -> str:
    s = q.sign(t)
    if s == PLUS:
        return style.positive_color
    if s == MINUS:
        return style.negative_color
    return style.endpoint_color


def _chord_body(Z: CentralCharge, stable_of, spec: RenderSpec, dx: Fraction) -> list[str]:
    q = Z.quiver
    style = spec.style
    if spec.window is not None:
        lo, hi = int(spec.window[0]), int(spec.window[1])
        mods = [
            StringModule(q, i, j) for i in range(lo, hi) for j in range(i + 1, hi + 1)
        ]
        mods = [m for m in mods if q.kind is not QuiverKind.AFFINE_A or m.is_exceptional]
    else:
        mods = candidate_modules(q)
    idx_lo = min(m.i for m in mods)
    idx_hi = max(m.j for m in mods)

    canvas = _Canvas()
    verts = {t: Z.dual_vertex(t) for t in range(idx_lo, idx_hi + 1)}
    for x, y in verts.values():
        canvas.see(x + dx, y)
    to_view = canvas.transform()

    body = []
    # candidate chords: solid when stable, dashed otherwise
    for m in modules_sorted(mods):
        (x1, y1), (x2, y2) = verts[m.i], verts[m.j]
        a = to_view(x1 + dx, y1)
        b = to_view(x2 + dx, y2)
        stable = stable_of(canonicalize(q, m))
        cls = "chord stable" if stable else "chord unstable"
        width = style.stable_width if stable else style.unstable_width
        dash = "" if stable else f' stroke-dasharray="{style.dash}"'
        body.append(
            f'<line class="{cls}" data-module="{m.i},{m.j}" '
            f'x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
            f'stroke="#555555" stroke-width="{width}"{dash}/>'
        )
    # boundary polylines: the upper chain through non-negative vertices,
    # the lower chain through non-positive ones
    for chain_sign, color in ((PLUS, style.positive_color), (MINUS, style.negative_color)):
        chain = [t for t in range(idx_lo, idx_hi + 1) if q.sign(t) in (chain_sign, 0)]
        if len(chain) > 1:
            points = " ".join(
                ",".join(to_view(verts[t][0] + dx, verts[t][1])) for t in chain
            )
            body.append(
                f'<polyline class="boundary" fill="none" points="{points}" '
                f'stroke="{color}" stroke-width="{style.boundary_width}"/>'
            )
    for t in range(idx_lo, idx_hi + 1):
        x, y = verts[t]
        vx, vy = to_view(x + dx, y)
        color = _vertex_color(q, t, style)
        body.append(
            f'<circle class="vertex" data-index="{t}" cx="{vx}" cy="{vy}" r="4" '
            f'fill="{color}"/>'
        )
        body.append(
            f'<text x="{vx}" y="{vy}" dy="-8" font-size="11" '
            f'text-anchor="middle" fill="{color}">p{t}</text>'
        )
    return body


def render_chord_svg(target, spec: RenderSpec | None = None) -> str:
    """Chord diagram; for a spliced path the two polygons sit side by side."""
    spec = spec or RenderSpec(mode="chord")
    if isinstance(target, SplicedPath):
        neg, pos = spliced_halves(target)
        width = target.z.x(2 * target.z.quiver.n) + 20
        body = _chord_body(target.z, neg.__contains__, spec, F(0))
        body += _chord_body(target.z_prime, pos.__contains__, spec, width)
        return _doc(body)
    try:
        stable_of = stable_set(target).__contains__
    except InfiniteStableSet:
        # no finite stable set to look up: decide each drawn chord alone
        def stable_of(m):
            return is_stable_oracle(target, m)

    return _doc(_chord_body(target, stable_of, spec, F(0)))


def _wire_body(z, z_pos, stable_members, spec: RenderSpec) -> list[str]:
    """Wires of z; a spliced path passes z_pos and follows it for t > 0."""
    q = z.quiver
    style = spec.style
    slopes = [s for _, _, s in stable_members]
    if spec.window is not None:
        t_lo, t_hi = as_fraction(spec.window[0]), as_fraction(spec.window[1])
    elif slopes:
        t_lo, t_hi = min(slopes) - 1, max(slopes) + 1
    else:
        t_lo, t_hi = F(-1), F(1)
    breaks = sorted({t_lo, t_hi} | ({F(0)} if z_pos is not None else set()))

    idx_hi = max((m.j for m, _, _ in stable_members), default=q.n)
    idx_hi = max(idx_hi, q.n)

    def f(i: int, t: Fraction) -> Fraction:
        return (z if z_pos is None or t <= 0 else z_pos).wire_value(i, t)

    canvas = _Canvas()
    for i in range(idx_hi + 1):
        for t in breaks:
            canvas.see(t, f(i, t))
    to_view = canvas.transform()

    body = []
    for i in range(idx_hi + 1):
        color = _vertex_color(q, i, style)
        points = " ".join(",".join(to_view(t, f(i, t))) for t in breaks)
        body.append(
            f'<polyline class="wire" data-index="{i}" fill="none" points="{points}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        vx, vy = to_view(breaks[-1], f(i, breaks[-1]))
        body.append(
            f'<text x="{vx}" y="{vy}" dx="4" font-size="11" fill="{color}">L{i}</text>'
        )
    for m, Z, s in sorted(stable_members, key=lambda e: (e[0].i, e[0].j)):
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
    return body


def render_wire_svg(target, spec: RenderSpec | None = None) -> str:
    """Wire diagram with stable crossings marked; splices kink at slope 0."""
    spec = spec or RenderSpec(mode="wire")
    if isinstance(target, SplicedPath):
        neg, pos = spliced_halves(target)
        members = [(m, target.z, s) for m, s in neg.items()]
        members += [(m, target.z_prime, s) for m, s in pos.items()]
        return _doc(_wire_body(target.z, target.z_prime, members, spec))
    members = [(m, target, s) for m, s, stable in target._classes if stable]
    return _doc(_wire_body(target, None, members, spec))
