"""Central charges: exact rational (a, b) data and derived views.

A charge Z on a quiver with n vertices is a pair of rational vectors
a, b of length n with every b_i > 0.  Everything downstream is driven by
the cumulative sums

    x_t = b_1 + ... + b_t,      y_t = a_1 + ... + a_t,

extended over the universal cover for the cyclic kinds.  The point
p_t = (x_t, y_t) is the t-th dual vertex (chord view); the line
f_t(s) = y_t - s * x_t is the t-th wire (wire view); the slope of a
module M(i, j) is (y_j - y_i)/(x_j - x_i), which is also the slope of
the chord p_i p_j and the abscissa where wires i and j cross.

All arithmetic is exact.  A charge keeps one representation of the
cumulative sums, an integer rescaling (:class:`IntContext`) that is an
exact clearing of denominators, never an approximation; the rational
views below are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import InvalidCharge, InvalidQuiver
from .quivers import Quiver, QuiverKind, StringModule, canonicalize

RationalLike = Fraction | int | str


def as_fraction(v: RationalLike) -> Fraction:
    """An exact rational from a Fraction, an int or a string such as
    ``"-3"``, ``"7/4"`` or ``"0.25"``.  Strings with an exponent are
    refused: ``"1e100000"`` alone would expand to a 332,193-bit integer,
    while plain digit runs are already bounded by Python's int limit."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str) and "e" not in v and "E" not in v:
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidCharge(f"not a rational value: {v!r}")


class IntContext:
    """Denominator-cleared cumulative sums for fast exact comparisons.

    ``ya[t] = la * y_t`` and ``xb[t] = lb * x_t`` are integers for
    0 <= t <= span.  Slope comparisons cross-multiply, so the two scale
    factors cancel; nothing here ever rounds.
    """

    __slots__ = ("ya", "xb", "la", "lb", "span", "sig")

    def __init__(self, charge: "CentralCharge", span: int):
        la = lcm(*[v.denominator for v in charge.a])
        lb = lcm(*[v.denominator for v in charge.b])
        q = charge.quiver
        n = q.n
        ya = [0] * (span + 1)
        xb = [0] * (span + 1)
        arow = [v.numerator * (la // v.denominator) for v in charge.a]
        brow = [v.numerator * (lb // v.denominator) for v in charge.b]
        for t in range(1, span + 1):
            ya[t] = ya[t - 1] + arow[(t - 1) % n]
            xb[t] = xb[t - 1] + brow[(t - 1) % n]
        self.ya = ya
        self.xb = xb
        self.la = la
        self.lb = lb
        self.span = span
        # sig[t] = q.sign(t): 0 at the ends of A_n, else signs[(t - 1) % n]
        w = q.signs
        if q.kind is QuiverKind.FINITE_A:
            self.sig = ((0,) + w + (0,))[: span + 1]
        else:
            self.sig = ((w[-1],) + w * (span // n + 1))[: span + 1]


@dataclass(frozen=True)
class CentralCharge:
    """Exact charge bound to a quiver; immutable and hashable."""

    quiver: Quiver
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.quiver.n
        if len(self.a) != n or len(self.b) != n:
            raise InvalidCharge(f"charge vectors must have length {n}")
        for v in (*self.a, *self.b):
            if type(v) is not Fraction and type(v) is not int:
                raise InvalidCharge(f"charge entries must be Fractions or ints, got {v!r}")
        if any(v <= 0 for v in self.b):
            raise InvalidCharge("every b_i must be positive")

    @cached_property
    def _ctx(self) -> IntContext:
        # 3n covers every candidate (i < n, length < 2n); a criterion
        # asked about a longer module widens it first.
        span = self.quiver.n if self.quiver.kind is QuiverKind.FINITE_A else 3 * self.quiver.n
        return IntContext(self, span)

    def _widen_ctx(self, t: int) -> None:
        """Rebuild the integer context wider if index t lies beyond its span
        (long exceptional affine modules do)."""
        if t > self._ctx.span:
            self.__dict__["_ctx"] = IntContext(self, 2 * t)

    @cached_property
    def _classes(self) -> tuple:
        """Every semistable candidate as the integer record (i, j, dy, dx,
        is_stable), from one sweep per charge; see
        :func:`greenseq.stability._sweep`."""
        from .stability import _sweep  # stability imports this module

        return _sweep(self)

    def _cum(self, t: int) -> tuple[int, int]:
        """(la * y_t, lb * x_t) from the integer context, periodically
        extended over the universal cover for the cyclic kinds."""
        n = self.quiver.n
        ctx = self._ctx
        if self.quiver.kind is QuiverKind.FINITE_A:
            if not 0 <= t <= n:
                raise ValueError(f"index {t} outside [0, {n}]")
            return ctx.ya[t], ctx.xb[t]
        q, r = divmod(t, n)
        return ctx.ya[r] + q * ctx.ya[n], ctx.xb[r] + q * ctx.xb[n]

    def x(self, t: int) -> Fraction:
        return Fraction(self._cum(t)[1], self._ctx.lb)

    def y(self, t: int) -> Fraction:
        return Fraction(self._cum(t)[0], self._ctx.la)

    def to_json(self) -> dict:
        def enc(v: Fraction):
            return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

        return {"a": [enc(v) for v in self.a], "b": [enc(v) for v in self.b]}

    def __repr__(self) -> str:
        return f"CentralCharge(a={[str(v) for v in self.a]}, b={[str(v) for v in self.b]})"


def make_charge(q: Quiver, a, b) -> CentralCharge:
    """Build a charge from rationals given as Fraction, int or 'p/q' strings."""
    # List forms, here and on every per-op path of the library, not
    # tuple(<generator>) or f(*<generator>): those build a 10-slot tuple
    # and resize it, so each call leaves one more freed tuple of its final
    # length on CPython's per-length free lists (kept up to 2000 each) and
    # takes none back, and a long run's memory creeps up.
    return CentralCharge(q, tuple([as_fraction(v) for v in a]), tuple([as_fraction(v) for v in b]))


def charge_from_json(q: Quiver, data: dict) -> CentralCharge:
    if not (isinstance(data, dict) and all(isinstance(data.get(k), list) for k in "ab")):
        raise InvalidCharge(f'a charge is an object {{"a": [...], "b": [...]}}, got {data!r}')
    return make_charge(q, data["a"], data["b"])


def slope(Z: CentralCharge, m: StringModule) -> Fraction:
    """Slope of a module: (a . dim)/(b . dim), exact; also the slope of
    the chord p_i p_j and the abscissa where wires i and j cross."""
    canonicalize(Z.quiver, m)
    (yi, xi), (yj, xj) = Z._cum(m.i), Z._cum(m.j)
    return Fraction((yj - yi) * Z._ctx.lb, (xj - xi) * Z._ctx.la)


def _total_slope(Z: CentralCharge) -> Fraction:
    ya_n, xb_n = Z._cum(Z.quiver.n)
    return Fraction(ya_n * Z._ctx.lb, xb_n * Z._ctx.la)


def normalize(Z: CentralCharge) -> CentralCharge:
    """Shift a by -c*b so the total a-sum vanishes; slopes all drop by c."""
    c = _total_slope(Z)
    if c == 0:
        return Z
    return CentralCharge(Z.quiver, tuple([av - c * bv for av, bv in zip(Z.a, Z.b)]), Z.b)


def critical_slope(Z: CentralCharge) -> Fraction:
    """Slope of the null root, (sum a)/(sum b); cyclic quivers only."""
    if not Z.quiver.is_cyclic:
        raise InvalidQuiver("critical slope needs a cyclic quiver (no null root on A_n)")
    return _total_slope(Z)


def _int_heights(Z: CentralCharge) -> dict[int, int]:
    """H_t = ya_t * xb_n - ya_n * xb_t for t in [1, n].

    f_t at the critical slope is H_t / (la * xb_n) with la * xb_n > 0,
    so the integers H_t order the critical heights exactly.
    """
    if not Z.quiver.is_cyclic:
        raise InvalidQuiver("critical slope needs a cyclic quiver (no null root on A_n)")
    n = Z.quiver.n
    ya, xb = Z._ctx.ya, Z._ctx.xb
    return {t: ya[t] * xb[n] - ya[n] * xb[t] for t in range(1, n + 1)}


def critical_heights(Z: CentralCharge) -> dict[int, Fraction]:
    """f_t at the critical slope for t in [1, n]; n-periodic by construction."""
    scale = Z._ctx.la * Z._ctx.xb[Z.quiver.n]
    return {t: Fraction(h, scale) for t, h in _int_heights(Z).items()}


def height_order(Z: CentralCharge) -> tuple[tuple[int, ...], ...]:
    """Indices 1..n grouped by exact critical-line height, lowest group first."""
    heights = _int_heights(Z)
    groups: dict[int, list[int]] = {}
    for t, h in heights.items():
        groups.setdefault(h, []).append(t)
    return tuple([tuple(sorted(groups[h])) for h in sorted(groups)])


def essential_pairs(Z: CentralCharge) -> list[tuple[int, int]]:
    """Pairs (k, l) in [1, n]^2 with sign(k)=+, sign(l)=- and k strictly
    below l on the critical line."""
    q = Z.quiver
    if not q.is_cyclic:
        raise InvalidQuiver("essential pairs are defined for cyclic quivers")
    heights = _int_heights(Z)
    return [
        (k, l)
        for k in q.positives()
        for l in q.negatives()
        if heights[k] < heights[l]
    ]


def is_finite(Z: CentralCharge) -> bool:
    """Whether Z has finitely many stable modules.

    Affine: equivalent to the existence of an essential pair.  The
    oriented cycle and A_n have finitely many modules altogether.
    """
    if Z.quiver.kind is QuiverKind.AFFINE_A:
        return bool(essential_pairs(Z))
    return True
