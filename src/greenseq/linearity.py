"""Linearity decisions and verified witness charges.

``is_linear_set`` decides from the sign word alone whether the maximal
set S(k, l) is realizable by a single charge: it is, exactly when the
signs strictly between k and l put every - before every + (Cond1), or
the signs strictly between l and k+n put every + before every - (Cond2).
Otherwise the four indices breaking both conditions form the
nonlinearity witness.

The constructors below share one path: template coordinates for the
dual vertices, one polygon-to-charge step (:func:`_through`) and one
certifier (:func:`_certify`).  None returns an unverified charge: the
certifier compares the (i, j) pairs of the stable set (the integer
records of the charge's sweep, see :mod:`greenseq.stability`) with the
target, re-checks every member with the chord and wire kernels, and
raises unless the target set is hit exactly.  A failed comparison names
the missing and extra modules in its message and carries them as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charges import CentralCharge, make_charge
from .errors import InfiniteStableSet, InvalidQuiver, VerificationFailed, WitnessSearchFailed
from .maxsets import build_Sk, build_Skl, check_pair, valid_pairs
from .quivers import MINUS, PLUS, Quiver, QuiverKind, StringModule, affine_a
from .stability import SplicedPath, _chord, _pieces, _wire, candidate_modules

F = Fraction

#: retry schedule for the height-gap parameter of the linear template
EPS_SCHEDULE = (F(1, 5), F(1, 10), F(1, 20), F(1, 40))


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


def _through(q: Quiver, k: int, xs, ys) -> CentralCharge:
    """The charge whose dual vertices are p_t = (xs[t], ys[t]) for
    k <= t <= k+n (xs and ys are indexed by t; on a cyclic quiver the
    window wraps once around the period)."""
    n = q.n
    a = [0] * n
    b = [0] * n
    for t in range(k + 1, k + n + 1):
        a[(t - 1) % n] = ys[t] - ys[t - 1]
        b[(t - 1) % n] = xs[t] - xs[t - 1]
    return make_charge(q, a, b)


def _certify(path, target, err: type[Exception], what: str) -> None:
    """Raise ``err`` unless the stable set of ``path``, a charge or a
    spliced path, is exactly ``target`` and the chord and wire criteria
    both call each member stable under the charge that rules it.

    The comparison runs on (i, j) pairs of the sweep's records; modules
    are built only to name the missing and extra ones, which the error
    also carries as its ``missing`` and ``extra`` tuples.  Records are
    canonical, inside their charge's integer context and carry their
    slope pair, so the kernels run on them directly.
    """
    parts = _pieces(path)
    got = {(i, j) for _, records in parts for i, j, _, _, stable in records if stable}
    want = {(m.i, m.j) for m in target}
    if got != want:
        q = parts[0][0].quiver
        missing = [StringModule(q, i, j) for i, j in sorted(want - got)]
        extra = [StringModule(q, i, j) for i, j in sorted(got - want)]
        raise err(
            f"{what}: stable set mismatch (missing {missing}, extra {extra})",
            missing=missing,
            extra=extra,
        )
    for Z, records in parts:
        for i, j, dy, dx, stable in records:
            if stable and not (_chord(Z, i, j, (dy, dx)) > 0 and _wire(Z, i, j, (dy, dx)) > 0):
                raise err(f"{what}: criteria disagree on {StringModule(Z.quiver, i, j)!r}")


def reineke_charge(q: Quiver) -> CentralCharge:
    """Standard charge making every A_n module stable.

    Vertex heights sit on the parabola s(n-s), positives above the axis
    and negatives below, which keeps the vertex polygon strictly convex.
    Accidental three-in-a-line coincidences across the two branches are
    broken by rescaling the positive heights.
    """
    if q.kind is not QuiverKind.FINITE_A:
        raise InvalidQuiver("the all-stable construction applies to A_n")
    n = q.n
    target = frozenset(candidate_modules(q))
    last_err: VerificationFailed | None = None
    for scale in (1, 2, 3):
        heights = [0] * (n + 1)
        for s in range(1, n):
            h = s * (n - s)
            heights[s] = h * scale if q.sign(s) == PLUS else -h
        Z = _through(q, 0, range(n + 1), heights)
        try:
            _certify(Z, target, VerificationFailed, "all-stable charge")
            return Z
        except VerificationFailed as err:
            last_err = err
    raise VerificationFailed(
        f"no all-stable charge found for {q.label()}: {last_err}",
        missing=last_err.missing,
        extra=last_err.extra,
    )


def dn_charge(q: Quiver, k: int) -> CentralCharge:
    """Standard charge on the oriented cycle with stable set S(k).

    Vertex heights follow the concave parabola -(2k + n - 2j)^2, with
    the consecutive differences taken over the window (k, k+n] so the
    lowest critical-line class is k.  (Taking them over (0, n] instead
    only ever realizes S(n): the k-dependence there is an a + 8k*b
    shift, which cannot change the stable set.)
    """
    target = build_Sk(q, k)
    n = q.n
    ys = [-((2 * k + n - 2 * j) ** 2) for j in range(k + n + 1)]
    Z = _through(q, k, range(k + n + 1), ys)
    _certify(Z, target, VerificationFailed, f"S({k}) charge")
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


def _cond2_charge(q: Quiver, k: int, l: int, eps: Fraction) -> CentralCharge:
    n = q.n
    g1 = list(range(k + 1, l))
    g2 = [t for t in range(l + 1, k + n) if q.sign(t) == PLUS]
    g3 = [t for t in range(l + 1, k + n) if q.sign(t) == MINUS]
    if g2 and g3 and max(g2) > min(g3):
        raise ValueError("template needs the positives of (l, k+n) first")
    m, n2, n3 = len(g1), len(g2), len(g3)
    period = F(4 * m + n2 + 10)

    xs: dict[int, Fraction] = {k: F(0), l: F(2 * m + 3), k + n: period}
    for idx, t in enumerate(g1, start=1):
        xs[t] = F(2 * idx + 1)
    for idx, t in enumerate(g2, start=1):
        xs[t] = xs[l] + F(idx, n2 + 1)
    for idx, t in enumerate(g3, start=1):
        xs[t] = period - 2 + F(idx, n3)

    eta = eps / (10_000 * (period + 3) ** 2)
    ys: dict[int, Fraction] = {k: F(0), l: eps, k + n: F(0)}
    for t in range(k + 1, k + n):
        if t == l:
            continue
        if q.sign(t) == PLUS:
            ys[t] = 2 - eta * (xs[t] + F(1, 3)) ** 2
        else:
            rep = xs[t] if t < l else xs[t] - period  # arc parameter in [-2, 2m+1]
            ys[t] = -2 + eta * (rep + F(7, 3)) ** 2
    return _through(q, k, xs, ys)


def _mirror_quiver(q: Quiver) -> Quiver:
    """Left-right flip: sign*(t) = sign(-t)."""
    return affine_a("".join("+" if q.sign(-t) == PLUS else "-" for t in range(1, q.n + 1)))


def _mirror_pair(q: Quiver, k: int, l: int) -> tuple[int, int]:
    n = q.n
    km = (-k) % n or n
    return km, km + (k - l) % n


def _unmirror_charge(q: Quiver, Zm: CentralCharge) -> CentralCharge:
    """Pull a charge back through the flip: a_i = -a*_{1-i}, b_i = b*_{1-i}."""
    n = q.n
    rev = [((1 - i) % n or n) - 1 for i in range(1, n + 1)]
    return CentralCharge(q, tuple([-Zm.a[r] for r in rev]), tuple([Zm.b[r] for r in rev]))


def witness_linear(q: Quiver, k: int, l: int) -> CentralCharge:
    """A verified charge whose stable set is exactly S(k, l).

    Requires a linear pair.  Cond2 instances use the template directly;
    Cond1-only instances are solved on the mirrored quiver (the flip
    swaps the two conditions) and pulled back.
    """
    verdict = is_linear_set(q, k, l)
    if not verdict.linear:
        raise ValueError(f"S({k},{l}) on {q.label()} is nonlinear; use a spliced witness")
    target = build_Skl(q, k, l).modules
    use_mirror = _inversion(q, l, k + q.n, MINUS) is not None
    if use_mirror:
        qm = _mirror_quiver(q)
        km, lm = _mirror_pair(q, k, l)
    last_err: Exception | None = None
    for eps in EPS_SCHEDULE:
        if use_mirror:
            Z = _unmirror_charge(q, _cond2_charge(qm, km, lm, eps))
        else:
            Z = _cond2_charge(q, k, l, eps)
        try:
            _certify(Z, target, VerificationFailed, f"S({k},{l}) witness")
            return Z
        except (VerificationFailed, InfiniteStableSet) as err:
            last_err = err
    raise WitnessSearchFailed(
        f"linear witness for S({k},{l}) on {q.label()} failed at every eps: {last_err}",
        missing=getattr(last_err, "missing", ()),
        extra=getattr(last_err, "extra", ()),
    )


# -- spliced witnesses -------------------------------------------------------
#
# Fixed two-charge template realizing any S(k, l), linear or not.  Both
# charges share the heights (hence the a-vector); the first one pulls
# p_l close to p_k so every negative-slope member chord fits under the
# vertex arcs, the second pushes them apart for the positive-slope half.

_ARC_C = F(1, 1000)


def _pos_arc(x: Fraction) -> Fraction:
    return 21 - F(2, 21) * (x + 10) + _ARC_C * (x + 10) * (11 - x)


def _neg_arc(x: Fraction) -> Fraction:
    return -19 - F(2, 21) * (x - 10) - _ARC_C * (x - 10) * (31 - x)


def _spliced_charge(q: Quiver, k: int, l: int, shift: Fraction) -> CentralCharge:
    """One half of the spliced pair; shift is 0 for Z and 10 for Z'.

    The shift applies to the whole periodic class of p_k (left) and of
    p_l (right), so both charges keep the period (40, 0).
    """
    n = q.n
    xs: dict[int, Fraction] = {k: F(-14) - shift, l: F(-5) + shift, k + n: F(26) - shift}
    ys: dict[int, Fraction] = {k: F(-1), l: F(1), k + n: F(-1)}
    left = range(k + 1, l)
    right = range(l + 1, k + n)
    for idx, t in enumerate(left, start=1):
        x = -10 + F(idx, len(left) + 1)
        xs[t] = x
        ys[t] = _pos_arc(x) if q.sign(t) == PLUS else _neg_arc(x + 40)
    for idx, t in enumerate(right, start=1):
        x = 10 + F(idx, len(right) + 1)
        xs[t] = x
        ys[t] = _pos_arc(x) if q.sign(t) == PLUS else _neg_arc(x)
    return _through(q, k, xs, ys)


def witness_spliced(q: Quiver, k: int, l: int) -> SplicedPath:
    """A verified spliced path whose stable set is exactly S(k, l)."""
    target = build_Skl(q, k, l).modules
    path = SplicedPath(_spliced_charge(q, k, l, F(0)), _spliced_charge(q, k, l, F(10)))
    _certify(path, target, WitnessSearchFailed, f"spliced witness for S({k},{l}) on {q.label()}")
    return path


def linear_pairs(q: Quiver) -> list[tuple[int, int, LinearityVerdict]]:
    """All valid pairs with their verdicts (enumeration helper)."""
    return [(k, l, is_linear_set(q, k, l)) for k, l in valid_pairs(q)]
