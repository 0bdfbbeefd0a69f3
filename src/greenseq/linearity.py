"""Linearity decisions and verified witness charges.

``is_linear_set`` decides from the sign word alone whether the maximal
set S(k, l) is realizable by a single charge: it is, exactly when the
signs strictly between k and l put every - before every + (Cond1), or
the signs strictly between l and k+n put every + before every - (Cond2).
Otherwise the four indices breaking both conditions form the
nonlinearity witness.

The constructors share one path: integer vertex coordinates over one
x-scale and one y-scale, one polygon-to-charge step (:func:`_through`)
and one certifier (:func:`_certify`), which compares the stable (i, j)
pairs with the target's, then checks every member in one O(n^2) sweep
per charge that does not read the charge's integer context.  Each
builds one template and certifies it once; none returns an unverified
charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .charges import CentralCharge
from .errors import InvalidQuiver, VerificationFailed, WitnessSearchFailed
from .maxsets import _sk_pairs, _skl_pairs, check_pair, valid_pairs
from .quivers import MINUS, PLUS, Quiver, QuiverKind, StringModule, affine_a
from .stability import SplicedPath, _pieces, candidate_pairs


@dataclass(frozen=True)
class LinearityVerdict:
    """Outcome of the linearity decision for one pair (k, l).

    Exactly one of the two fields is populated: a satisfied condition
    ("Cond1"/"Cond2") when linear, the 4-index pattern witness
    (k', l', l'', k'') when not.
    """

    linear: bool
    satisfied_condition: str | None = None
    pattern_witness: tuple[int, int, int, int] | None = None

    def to_json(self) -> dict:
        return {
            "linear": self.linear,
            "satisfied_condition": self.satisfied_condition,
            "pattern_witness": list(self.pattern_witness) if self.pattern_witness else None,
        }


def _inversion(q: Quiver, lo: int, hi: int, first: int) -> tuple[int, int] | None:
    """The first sign ``first`` inside (lo, hi) and the first opposite
    sign after it, or None if the opposite signs all come first.

    Cond1 holds when ``_inversion(q, k, l, PLUS)`` is None, Cond2 when
    ``_inversion(q, l, k + n, MINUS)`` is.
    """
    start = None
    for t in range(lo + 1, hi):
        if q.sign(t) == first:
            if start is None:
                start = t
        elif start is not None:
            return (start, t)
    return None


def is_linear_set(q: Quiver, k: int, l: int) -> LinearityVerdict:
    """Decide whether S(k, l) is realizable by a single linear charge."""
    check_pair(q, k, l)
    v1 = _inversion(q, k, l, PLUS)
    v2 = _inversion(q, l, k + q.n, MINUS)
    if v1 is None:
        return LinearityVerdict(True, satisfied_condition="Cond1")
    if v2 is None:
        return LinearityVerdict(True, satisfied_condition="Cond2")
    return LinearityVerdict(False, pattern_witness=(v1[0], v1[1], v2[0], v2[1]))


# ---------------------------------------------------------------------------
# verified constructions


def _through(q: Quiver, k: int, xs, ys, sx: int = 1, sy: int = 1) -> CentralCharge:
    """The charge whose dual vertices are p_t = (xs[t-k]/sx, ys[t-k]/sy)
    for k <= t <= k+n, from integer coordinates over one x-scale and one
    y-scale (on a cyclic quiver the window wraps once around the period)."""
    n = q.n
    a, b = [0] * n, [0] * n
    for s in range(1, n + 1):
        a[(k + s - 1) % n] = Fraction(ys[s] - ys[s - 1], sy)
        b[(k + s - 1) % n] = Fraction(xs[s] - xs[s - 1], sx)
    return CentralCharge(q, tuple(a), tuple(b))


def _certify(path, want: set[tuple[int, int]], err: type[Exception], what: str) -> None:
    """Raise ``err`` unless the stable pairs of ``path``, a charge or a
    spliced path, are exactly the canonical (i, j) pairs ``want`` and
    :func:`_unstable_members` passes every member of each charge.  Modules
    are built only for the error's ``missing`` and ``extra`` tuples."""
    parts = _pieces(path)
    got = {(i, j) for _, records in parts for i, j, _, _, stable in records if stable}
    if got != want:
        q = parts[0][0].quiver
        missing = [StringModule(q, i, j) for i, j in sorted(want - got)]
        extra = [StringModule(q, i, j) for i, j in sorted(got - want)]
        raise err(f"{what}: stable set mismatch (missing {missing}, extra {extra})",
                  missing=missing, extra=extra)
    for Z, records in parts:
        bad = _unstable_members(Z, [(i, j) for i, j, _, _, stable in records if stable])
        if bad:
            raise err(f"{what}: criteria disagree on {StringModule(Z.quiver, *bad[0])!r}")


def _unstable_members(Z: CentralCharge, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The canonical pairs of ``pairs``, sorted by (i, j), that the chord
    criterion calls not stable under Z, in one O(n^2) sweep on cumulative
    sums of Z.a, Z.b over one common denominator, not on ``Z._ctx``.
    Per left end i it walks upward keeping the least slope (dy, dx) from
    p_i to a positive vertex and the greatest to a negative one ((1, 0)
    and (-1, 0) are +inf and -inf); a member must lie strictly between."""
    n, signs = Z.quiver.n, Z.quiver.signs
    period = len(signs)  # n - 1 on A_n, whose walks stay inside (0, n)
    den = lcm(*[v.denominator for v in Z.a], *[v.denominator for v in Z.b])
    arow = [v.numerator * (den // v.denominator) for v in Z.a]
    brow = [v.numerator * (den // v.denominator) for v in Z.b]
    ys, xs, bad, left = [0], [0], [], None
    for t in range(max([j for _, j in pairs], default=0)):
        ys.append(ys[-1] + arow[t % n])
        xs.append(xs[-1] + brow[t % n])
    for i, j in pairs:
        if i != left:
            left, t = i, i + 1
            yi, xi = ys[i], xs[i]
            hi_y, hi_x, lo_y, lo_x = 1, 0, -1, 0
        while t < j:
            dy, dx = ys[t] - yi, xs[t] - xi
            if signs[(t - 1) % period] == MINUS:
                if dy * lo_x > lo_y * dx:
                    lo_y, lo_x = dy, dx
            elif dy * hi_x < hi_y * dx:
                hi_y, hi_x = dy, dx
            t += 1
        dy, dx = ys[j] - yi, xs[j] - xi
        if dy * lo_x <= lo_y * dx or hi_y * dx <= dy * hi_x:
            bad.append((i, j))
    return bad


def reineke_charge(q: Quiver) -> CentralCharge:
    """Standard charge making every A_n module stable.

    p_s = (s, +-s(n-s)), + at a positive s: positives lie on the strictly
    concave arc f(s) = s(n-s), negatives on the convex arc -f <= f, and
    p_0, p_n on both.  Moving the ends of a chord p_i p_j up onto f gives
    the chord of f over [i, j], which strict concavity puts strictly
    below every positive between; negatives likewise lie strictly below
    every chord over them, so every module is stable.
    """
    if q.kind is not QuiverKind.FINITE_A:
        raise InvalidQuiver("the all-stable construction applies to A_n")
    n = q.n
    heights = [s * (n - s) * q.sign(s) for s in range(1, n)]
    Z = _through(q, 0, range(n + 1), [0] + heights + [0])
    _certify(Z, set(candidate_pairs(q)), VerificationFailed, "all-stable charge")
    return Z


def dn_charge(q: Quiver, k: int) -> CentralCharge:
    """Standard charge on the oriented cycle with stable set S(k).

    Vertex heights follow the concave parabola -(2k + n - 2j)^2, with
    the consecutive differences taken over the window (k, k+n] so the
    lowest critical-line class is k.  (Taking them over (0, n] instead
    only ever realizes S(n): the k-dependence there is an a + 8k*b
    shift, which cannot change the stable set.)
    """
    want, n = _sk_pairs(q, k), q.n
    Z = _through(q, k, range(n + 1), [-((2 * k + n - 2 * j) ** 2) for j in range(k, k + n + 1)])
    _certify(Z, want, VerificationFailed, f"S({k}) charge")
    return Z


# -- single-charge witnesses -------------------------------------------------
#
# The Cond2 template.  Window [k, k+n], normalized heights.  Positives
# other than k sit just under height 2 on a concave-down arc, negatives
# other than l just above -2 on a concave-up arc, y_k = 0 < y_l = eps.
# The x-axis layout per period: the positives of (l, k+n) pack into a
# unit interval right after l and the trailing negatives into a unit
# interval right before k+n (their -n translates land just left of k);
# the mixed zone (k, l) is spread at spacing 2 and a wide vertex-free
# gap separates the two packs.  Both packs must be narrower than their
# distance to the nearest mixed vertex: a band-crossing chord then
# passes its zero height before reaching l (resp. after passing k), so
# p_l stays below and p_k above every chord that has to clear them.
# Coordinates are integers over sx (pack steps 1/(n2+1), 1/n3) and sy
# (arcs eta*(x + 1/3)^2, eta*(x + 7/3)^2, eta = eps/(10^4 (P + 3)^2)).


def _cond2_charge(q: Quiver, k: int, l: int, eps: Fraction | None = None) -> CentralCharge:
    """The Cond2 template for S(k, l), with the height gap eps = 1/P
    unless one is given; P = 4m + n2 + 10 is the period in x-steps, with
    m = l-k-1 and n2 the number of positives of (l, k+n).

    Why 1/P works at every size: p_l is a negative, so every member chord
    over p_l or a translate must pass above it, and two kinds do (the
    arcs stay within delta = eps/10^4 of +-2):
    * over p_{l-n} = (2m+3-P, eps), the chords from p_{j-n}, j a positive
      of (k, l) (x_j >= 3, height >= 2 - delta), to an end i in B (x_i > -2,
      height >= -2).  They reach x_{l-n} at the fraction
      r = (2m+3 - x_j)/(P + x_i - x_j) < 2m/(P - 5) of their run, so at a
      height above 2 - 4r - delta > (2 n2 + 10)/(P - 5) - delta > 10/P;
    * over p_l, the chords from a vertex left of l (x <= 2m+1, height
      >= -2) to a positive within 1 right of it (height >= 2 - delta),
      past 2/3 of their run at x_l, so above 2/3 - delta > 1/P.
    A gap that does not shrink with P fails on large quivers: with n2 = 0
    the first bound is nearly attained.  From below, the template needs
    only eps > 0 = y_k, which makes (k, l) the essential pair.
    """
    n = q.n
    rest = [q.sign(t) for t in range(l + 1, k + n)]
    m, n2, n3 = l - k - 1, rest.count(PLUS), rest.count(MINUS)
    if PLUS in rest[n2:]:
        raise ValueError("template needs the positives of (l, k+n) first")
    steps = 4 * m + n2 + 10
    eps = eps or Fraction(1, steps)
    sx = (n2 + 1) * (n3 or 1)
    period = steps * sx
    sy = eps.denominator * 90_000 * (steps + 3) ** 2 * sx * sx
    xs = [0] + [(2 * s + 1) * sx for s in range(1, m + 2)]  # indexed t - k; l: 2m + 3
    xs += [xs[-1] + idx * (n3 or 1) for idx in range(1, n2 + 1)]
    xs += [period - 2 * sx + idx * (n2 + 1) for idx in range(1, n3 + 1)] + [period]
    ys = [0] * (n + 1)
    for t in range(k + 1, k + n):
        x = xs[t - k]
        if t == l:
            ys[t - k] = sy // eps.denominator * eps.numerator
        elif q.sign(t) == PLUS:
            ys[t - k] = 2 * sy - eps.numerator * (3 * x + sx) ** 2
        else:
            rep = x if t < l else x - period  # arc parameter in [-2, 2m+1]
            ys[t - k] = -2 * sy + eps.numerator * (3 * rep + 7 * sx) ** 2
    return _through(q, k, xs, ys, sx, sy)


def _mirror(q: Quiver, k: int, l: int) -> tuple[Quiver, int, int]:
    """Left-right flip sign*(t) = sign(-t), and the image of (k, l)."""
    n = q.n
    km = (-k) % n or n
    word = "".join("+" if q.sign(-t) == PLUS else "-" for t in range(1, n + 1))
    return affine_a(word), km, km + (k - l) % n


def _unmirror_charge(q: Quiver, Zm: CentralCharge) -> CentralCharge:
    """Pull a charge back through the flip: a_i = -a*_{1-i}, b_i = b*_{1-i},
    which reverses both vectors."""
    return CentralCharge(q, tuple([-v for v in reversed(Zm.a)]), Zm.b[::-1])


def witness_linear(q: Quiver, k: int, l: int) -> CentralCharge:
    """A verified charge whose stable set is exactly S(k, l).

    Requires a linear pair.  Cond2 instances use the template directly;
    Cond1-only instances are solved on the mirrored quiver (the flip
    swaps the two conditions) and pulled back.  One template is built
    and certified; a failed certificate raises
    :class:`WitnessSearchFailed`.
    """
    if not is_linear_set(q, k, l).linear:
        raise ValueError(f"S({k},{l}) on {q.label()} is nonlinear; use a spliced witness")
    want = _skl_pairs(q, k, l)[2]
    if _inversion(q, l, k + q.n, MINUS) is None:
        Z = _cond2_charge(q, k, l)
    else:
        Z = _unmirror_charge(q, _cond2_charge(*_mirror(q, k, l)))
    _certify(Z, want, WitnessSearchFailed, f"linear witness for S({k},{l}) on {q.label()}")
    return Z


# -- spliced witnesses -------------------------------------------------------
#
# Fixed two-charge template realizing any S(k, l), linear or not.  Both
# charges share the heights (hence the a-vector); the first one pulls
# p_l close to p_k so every negative-slope member chord fits under the
# vertex arcs, the second pushes them apart for the positive-slope half.
# The vertices of (k, l) sit at x = -10 + idx/(|left| + 1), those of
# (l, k+n) at 10 + idx/(|right| + 1); a positive at height
# 21 - (2/21)(x + 10) + (x + 10)(11 - x)/1000, a negative at
# -19 - (2/21)(v - 10) - (v - 10)(31 - v)/1000, v = x + 40 left of l.


def _spliced_charge(q: Quiver, k: int, l: int, shift: int) -> CentralCharge:
    """One half of the spliced pair; shift is 0 for Z and 10 for Z'.

    The shift applies to the whole periodic class of p_k (left) and of
    p_l (right), so both charges keep the period (40, 0).  Coordinates
    are integers over dx = (|left|+1)(|right|+1) and dy = 21000*dx^2.
    """
    n = q.n
    nl, nr = l - k - 1, k + n - l - 1  # |left|, |right|
    dx = (nl + 1) * (nr + 1)
    dy = 21_000 * dx * dx
    xs = [0] * (n + 1)  # indexed t - k
    ys = [-dy] * (n + 1)
    xs[0], xs[l - k], xs[n] = (-14 - shift) * dx, (-5 + shift) * dx, (26 - shift) * dx
    ys[l - k] = dy
    for s in range(1, n):
        if s == l - k:
            continue
        x = xs[s] = -10 * dx + s * (nr + 1) if s < l - k else 10 * dx + (s - l + k) * (nl + 1)
        if q.sign(k + s) == PLUS:
            u = x + 10 * dx
            ys[s] = 21 * dy - 2000 * dx * u + 21 * u * (11 * dx - x)
        else:
            v = x + 40 * dx if s < l - k else x
            ys[s] = -19 * dy - 2000 * dx * (v - 10 * dx) - 21 * (v - 10 * dx) * (31 * dx - v)
    return _through(q, k, xs, ys, dx, dy)


def witness_spliced(q: Quiver, k: int, l: int) -> SplicedPath:
    """A verified spliced path whose stable set is exactly S(k, l)."""
    want = _skl_pairs(q, k, l)[2]
    path = SplicedPath(_spliced_charge(q, k, l, 0), _spliced_charge(q, k, l, 10))
    _certify(path, want, WitnessSearchFailed, f"spliced witness for S({k},{l}) on {q.label()}")
    return path


def linear_pairs(q: Quiver) -> list[tuple[int, int, LinearityVerdict]]:
    """All valid pairs with their verdicts (enumeration helper)."""
    return [(k, l, is_linear_set(q, k, l)) for k, l in valid_pairs(q)]
