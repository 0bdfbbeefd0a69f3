"""Stability criteria, stable-set enumeration and green sequences.

Three equivalent tests decide (semi)stability of a string module M(i, j)
under a charge Z:

* oracle - compare the slope of M(i, j) with the slope of each of its
  proper indecomposable submodules M(p, r), one walk over the interior
  ends that keeps the best left end so far;
* chord  - every intermediate positive dual vertex must sit on/above the
  chord p_i p_j and every negative one on/below;
* wire   - at the crossing abscissa of wires i and j, every intermediate
  positive wire passes above the crossing and every negative one below.

All three are implemented on the exact integer context of the charge,
each as one kernel that answers unstable, semistable or stable at once,
and are exposed separately; the fuzz entry point checks that they agree.

Stable sets, green sequences and splices do not run them.  They read
``Z._classes``, one integer sweep per charge (:func:`_sweep`) that keeps
every semistable candidate as the record ``(i, j, dy, dx, is_stable)``:
the module's ends and its slope as the integer pair (dy, dx) of the
charge's context, where slope = dy*lb / (dx*la) and dx > 0.  Readers sort,
split and compare on these integers.  ``StringModule`` and ``Fraction``
objects are built only where a caller gets them back: :func:`stable_set`,
:func:`halves` (what the CLI and the renderers read), the entries of a
:class:`GreenSequence` and the culprits of an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable
from weakref import WeakKeyDictionary

from .charges import CentralCharge, as_fraction, is_finite
from .errors import InfiniteStableSet, NonGeneric, SpliceInvalid
from .quivers import (
    MINUS,
    Quiver,
    QuiverKind,
    StringModule,
    canonicalize,
    indecomposable_submodules,
)
from .rng import XorShift64Star


class WallMembership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    HYPERPLANE_ONLY = "hyperplane-only"
    OUTSIDE = "outside"


def in_wall(x, m: StringModule) -> WallMembership:
    """Classify a point of R^n against the wall of m.

    The wall is cut out by x . dim(m) = 0 together with x . dim(m') <= 0
    for every submodule m'; the interior needs those products strictly
    negative.  Checking indecomposable submodules suffices because the
    dimension vector of any submodule is a sum of indecomposable ones.
    """
    xs = [as_fraction(v) for v in x]
    dim = m.dim_vector()
    if len(xs) != len(dim):
        raise ValueError(f"point has length {len(xs)}, expected {len(dim)}")
    if sum(c * d for c, d in zip(xs, dim)) != 0:
        return WallMembership.OUTSIDE
    worst = None
    for sub in indecomposable_submodules(m.quiver, m):
        if sub == m:
            continue
        prod = sum(c * d for c, d in zip(xs, sub.dim_vector()))
        if worst is None or prod > worst:
            worst = prod
    if worst is None or worst < 0:
        return WallMembership.INTERIOR
    if worst == 0:
        return WallMembership.BOUNDARY
    return WallMembership.HYPERPLANE_ONLY


# ---------------------------------------------------------------------------
# the three criteria
#
# Each kernel gives one verdict for M(i, j): -1 unstable, 0 semistable but
# not stable, 1 stable.  It stops at the first negative sign and remembers
# whether it saw a zero; the public wrappers read the verdict as >= 0
# (semistable) or > 0 (stable).  All three test M(i, j) against its own
# slope, which the caller computes once per module with _slope_pair and
# passes in.


def _slope_pair(Z: CentralCharge, i: int, j: int) -> tuple[int, int]:
    """slope(M(i, j)) as the integer pair (dy, dx) of Z's context, dx > 0."""
    ctx = Z._ctx
    return ctx.ya[j] - ctx.ya[i], ctx.xb[j] - ctx.xb[i]


def _oracle(Z: CentralCharge, i: int, j: int, slope: tuple[int, int]) -> int:
    # With g(t) = ya_t*den - num*xb_t, slope(M(p, r)) - slope(M(i, j))
    # has the sign of g(r) - g(p) (denominators > 0).  The submodules
    # M(p, r), p < r, pair a left end p (i, or an interior - sign) with a
    # right end r (j, or an interior + sign), so one walk keeps the
    # largest g over the left ends so far and tests each right end
    # against it.  M(i, j) itself is excluded: for r = j only the
    # interior left ends count.
    ctx = Z._ctx
    ya, xb, sig = ctx.ya, ctx.xb, ctx.sig
    num, den = slope
    top = ya[i] * den - num * xb[i]
    inner = None  # the largest g over interior left ends
    verdict = 1
    for t in range(i + 1, j):
        g = ya[t] * den - num * xb[t]
        if sig[t] == MINUS:
            if g > top:
                top = g
            if inner is None or g > inner:
                inner = g
        else:
            value = g - top
            if value <= 0:
                if value:
                    return -1
                verdict = 0
    if inner is not None:
        value = ya[j] * den - num * xb[j] - inner
        if value <= 0:
            if value:
                return -1
            verdict = 0
    return verdict


def _criterion(kernel, Z: CentralCharge, m: StringModule) -> int:
    canonicalize(Z.quiver, m)
    Z._widen_ctx(m.j)
    return kernel(Z, m.i, m.j, _slope_pair(Z, m.i, m.j))


def is_semistable_oracle(Z: CentralCharge, m: StringModule) -> bool:
    """Every proper indecomposable submodule has slope >= slope(m)."""
    return _criterion(_oracle, Z, m) >= 0


def is_stable_oracle(Z: CentralCharge, m: StringModule) -> bool:
    """Every proper indecomposable submodule has slope > slope(m)."""
    return _criterion(_oracle, Z, m) > 0


def _chord(Z: CentralCharge, i: int, j: int, slope: tuple[int, int]) -> int:
    ctx = Z._ctx
    ya, xb, sig = ctx.ya, ctx.xb, ctx.sig
    yi, xi = ya[i], xb[i]
    dy, dx = slope
    verdict = 1
    for k in range(i + 1, j):
        # cross product: + when the dual vertex p_k lies above the chord
        s = dx * (ya[k] - yi) - dy * (xb[k] - xi)
        if sig[k] == MINUS:
            s = -s
        if s <= 0:
            if s:
                return -1
            verdict = 0
    return verdict


def is_semistable_chord(Z: CentralCharge, m: StringModule) -> bool:
    """Intermediate positive vertices on/above the chord, negative on/below."""
    return _criterion(_chord, Z, m) >= 0


def is_stable_chord(Z: CentralCharge, m: StringModule) -> bool:
    """Semistable with no dual vertex on the open chord (strict sides)."""
    return _criterion(_chord, Z, m) > 0


def _wire(Z: CentralCharge, i: int, j: int, slope: tuple[int, int]) -> int:
    ctx = Z._ctx
    ya, xb, sig = ctx.ya, ctx.xb, ctx.sig
    yi, xi = ya[i], xb[i]
    dy, dx = slope
    # crossing abscissa t = t_num / t_den of wires i and j, unreduced; t_den > 0
    t_num = dy * ctx.lb
    t_den = dx * ctx.la
    la_num = t_num * ctx.la
    lb_den = t_den * ctx.lb
    verdict = 1
    for k in range(i + 1, j):
        # sign of f_k(t) - f_i(t) after clearing the two scale factors
        s = (ya[k] - yi) * lb_den - la_num * (xb[k] - xi)
        if sig[k] == MINUS:
            s = -s
        if s <= 0:
            if s:
                return -1
            verdict = 0
    return verdict


def is_semistable_wire(Z: CentralCharge, m: StringModule) -> bool:
    """Positive wires pass on/over the crossing of wires i, j; negative under."""
    return _criterion(_wire, Z, m) >= 0


def is_stable_wire(Z: CentralCharge, m: StringModule) -> bool:
    return _criterion(_wire, Z, m) > 0


# ---------------------------------------------------------------------------
# candidate enumeration and stable sets


#: candidate pairs per quiver, dropped with the quiver: every charge on a
#: quiver scans the same pairs, while one-shot quivers (a CLI call on a
#: fresh sign word) must not pile up
_PAIRS: WeakKeyDictionary[Quiver, tuple[tuple[int, int], ...]] = WeakKeyDictionary()


def candidate_pairs(q: Quiver) -> tuple[tuple[int, int], ...]:
    """Canonical (i, j) pairs that can carry a stable module.

    Finite A_n: every interval.  Cycle: lengths 1..n-1.  Affine: lengths
    below 2n (any longer module is unstable once an essential pair
    exists), skipping non-exceptional end-sign patterns.
    """
    pairs = _PAIRS.get(q)
    if pairs is None:
        pairs = _PAIRS[q] = tuple(_enumerate_pairs(q))
    return pairs


def _enumerate_pairs(q: Quiver) -> list[tuple[int, int]]:
    n = q.n
    if q.kind is QuiverKind.FINITE_A:
        return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    if q.kind is QuiverKind.CYCLE:
        return [(i, i + d) for i in range(n) for d in range(1, n)]
    signs = q.signs  # sign(t) = signs[(t - 1) % n]
    return [
        (i, i + d)
        for i in range(n)
        for d in range(1, 2 * n)
        if d < n or signs[i - 1] != signs[(i + d - 1) % n]
    ]


def candidate_modules(q: Quiver) -> list[StringModule]:
    return [StringModule(q, i, j) for i, j in candidate_pairs(q)]


def _sweep(Z: CentralCharge) -> tuple[tuple[int, int, int, int, bool], ...]:
    """Every semistable candidate of Z as the record (i, j, dy, dx,
    is_stable), sorted by (i, j); (dy, dx) is the module's slope as an
    integer pair of ``Z._ctx`` with dx > 0.  Builds no module and no
    Fraction.

    The chord criterion as a sweep: for fixed i, p_k lies above the chord
    p_i p_j exactly when slope(p_i p_k) > slope(p_i p_j), so walking j
    upward it suffices to keep the least slope from p_i to a positive
    vertex passed so far and the greatest to a negative one.  M(i, j) is
    semistable iff its slope lies between the two, stable iff strictly;
    once the two cross, no longer module from that i is semistable.
    Slopes are integer pairs (dy, dx) with dx > 0, compared by cross
    multiplication; (1, 0) and (-1, 0) stand for +inf and -inf.

    Affine charges must be finite; the scan then only needs lengths
    below 2n.
    """
    q = Z.quiver
    if q.kind is QuiverKind.AFFINE_A and not is_finite(Z):
        raise InfiniteStableSet(f"no essential pair for charge {Z!r}")
    ctx = Z._ctx
    ya, xb, sig = ctx.ya, ctx.xb, ctx.sig
    out = []
    left = None
    for i, j in candidate_pairs(q):
        if i != left:
            left, k = i, i + 1
            yi, xi = ya[i], xb[i]
            hi_y, hi_x, lo_y, lo_x = 1, 0, -1, 0
        elif k < 0:
            continue
        while k < j:
            dy, dx = ya[k] - yi, xb[k] - xi
            if sig[k] == MINUS:
                if dy * lo_x > lo_y * dx:
                    lo_y, lo_x = dy, dx
            elif dy * hi_x < hi_y * dx:
                hi_y, hi_x = dy, dx
            k += 1
        dy, dx = ya[j] - yi, xb[j] - xi
        above_lo = dy * lo_x - lo_y * dx
        below_hi = hi_y * dx - dy * hi_x
        if above_lo >= 0 and below_hi >= 0:
            out.append((i, j, dy, dx, above_lo > 0 and below_hi > 0))
        elif lo_y * hi_x > hi_y * lo_x:
            k = -1  # lo > hi: no longer module from this i is semistable
    return tuple(out)


def stable_set(Z: CentralCharge) -> frozenset[StringModule]:
    """All stable modules of Z."""
    return _modules(_pieces(Z))


@dataclass(frozen=True)
class GreenSequence:
    """Stable modules of a finite green path, by strictly increasing slope."""

    entries: tuple[tuple[StringModule, Fraction], ...]

    def __post_init__(self):
        slopes = [s for _, s in self.entries]
        if any(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("green sequence slopes must strictly increase")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_json(self) -> dict:
        return {
            "modules": [
                {"i": m.i, "j": m.j, "slope": str(s)} for m, s in self.entries
            ],
            "ordered": True,
        }


def _green(target) -> GreenSequence:
    """Slope-sort the stable modules of each half of a charge or spliced
    path, refusing strict semistables and ties.

    Within a half every slope is dy*lb / (dx*la) with one (la, lb), so
    the half sorts on dy/dx.  With D the half's largest dx, two distinct
    such slopes differ by at least 1/D^2, so the integer floor(dy*D^2/dx)
    orders them and is equal exactly on a tie.  Records come in (i, j)
    order; the key keeps it among equal slopes.  Objects are built only
    for the returned entries or the culprits."""
    entries = []
    for Z, records in _pieces(target):
        q = Z.quiver
        strict = [StringModule(q, i, j) for i, j, _, _, stable in records if not stable]
        if strict:
            raise NonGeneric("strict-semistable", strict)
        if not records:
            continue
        d2 = max([r[3] for r in records]) ** 2
        half = sorted([(dy * d2 // dx, i, j, dy, dx) for i, j, dy, dx, _ in records])
        for (k1, i1, j1, _, _), (k2, i2, j2, _, _) in zip(half, half[1:]):
            if k1 == k2:
                raise NonGeneric("tie", [StringModule(q, i1, j1), StringModule(q, i2, j2)])
        la, lb = Z._ctx.la, Z._ctx.lb
        entries += [(StringModule(q, i, j), Fraction(dy * lb, dx * la)) for _, i, j, dy, dx in half]
    return GreenSequence(tuple(entries))


def mgs(Z: CentralCharge) -> GreenSequence:
    """Maximal green sequence of a generic finite charge."""
    return _green(Z)


# ---------------------------------------------------------------------------
# spliced piecewise-linear paths


@dataclass(frozen=True)
class SplicedPath:
    """Two charges sharing the a-vector, glued at slope 0.

    The first charge rules the negative-slope half of the path, the
    second the positive-slope half.  Both must be finite with no
    semistable module of slope 0; a path is checked when it is built.
    """

    z: CentralCharge
    z_prime: CentralCharge

    def __post_init__(self):
        if not (isinstance(self.z, CentralCharge) and isinstance(self.z_prime, CentralCharge)):
            got = f"{type(self.z).__name__} and {type(self.z_prime).__name__}"
            raise SpliceInvalid(f"a spliced path joins two central charges, got {got}")
        if self.z.quiver != self.z_prime.quiver:
            raise SpliceInvalid("spliced charges must live on the same quiver")
        if self.z.a != self.z_prime.a:
            raise SpliceInvalid("spliced charges must share the a-vector")
        for tag, Z in (("first charge", self.z), ("second charge", self.z_prime)):
            for i, j, dy, _, _ in Z._classes:
                if dy == 0:
                    m = StringModule(Z.quiver, i, j)
                    raise SpliceInvalid(f"{tag} has a semistable module of slope 0: {m!r}")


def _pieces(target) -> tuple:
    """(charge, its records (i, j, dy, dx, is_stable)) per half of a
    charge or a spliced path; see :func:`halves`.  A slope has the sign
    of its dy."""
    if isinstance(target, SplicedPath):
        return (
            (target.z, [r for r in target.z._classes if r[2] < 0]),
            (target.z_prime, [r for r in target.z_prime._classes if r[2] > 0]),
        )
    return ((target, target._classes),)


def _modules(pieces) -> frozenset[StringModule]:
    """The stable modules of ``_pieces``."""
    return frozenset([
        StringModule(Z.quiver, i, j)
        for Z, records in pieces
        for i, j, _, _, stable in records
        if stable
    ])


def halves(
    target, include_semistable: bool = False
) -> list[tuple[CentralCharge, list[tuple[StringModule, Fraction]]]]:
    """Stable (with the flag: semistable) modules and their slopes, as
    ``(charge, [(module, slope), ...])`` per charge of ``target``, in
    (i, j) order.  A charge gives one pair.  A spliced path gives two: the
    negative-slope members of z and the positive-slope members of z_prime.
    The two charges share the a-vector, so a module's slope has the same
    sign under both and no module is in both halves.  This is the object
    view of the records that the CLI and the renderers read."""
    out = []
    for Z, records in _pieces(target):
        q, la, lb = Z.quiver, Z._ctx.la, Z._ctx.lb
        out.append((Z, [
            (StringModule(q, i, j), Fraction(dy * lb, dx * la))
            for i, j, dy, dx, stable in records
            if stable or include_semistable
        ]))
    return out


def spliced_stable_set(p: SplicedPath) -> frozenset[StringModule]:
    """Union of the negative-slope part of z and the positive-slope part
    of z_prime."""
    return _modules(_pieces(p))


def spliced_mgs(p: SplicedPath) -> GreenSequence:
    return _green(p)


# ---------------------------------------------------------------------------
# criterion-equivalence fuzzing (shared by the CLI and the test suite)


def random_charge(q: Quiver, rng: XorShift64Star, max_den: int = 64) -> CentralCharge:
    a = tuple([rng.rational(max_den, signed=True) for _ in range(q.n)])
    b = tuple([rng.rational(max_den, signed=False) for _ in range(q.n)])
    return CentralCharge(q, a, b)


def equivalence_mismatches(Z: CentralCharge) -> list[dict]:
    """Candidates where oracle, chord and wire disagree (should be none);
    each record gives the three verdicts as -1/0/1."""
    out = []
    ctx = Z._ctx
    ya, xb = ctx.ya, ctx.xb
    for i, j in candidate_pairs(Z.quiver):
        slope = (ya[j] - ya[i], xb[j] - xb[i])  # _slope_pair, inlined
        o = _oracle(Z, i, j, slope)
        c = _chord(Z, i, j, slope)
        w = _wire(Z, i, j, slope)
        if not (o == c == w):
            out.append(
                {
                    "module": {"i": i, "j": j},
                    "oracle": o,
                    "chord": c,
                    "wire": w,
                    "charge": Z.to_json(),
                }
            )
    return out


def fuzz_quiver(
    q: Quiver, trials: int, seed: int, max_den: int = 64, start: int = 0
) -> list[dict]:
    """Run ``trials`` random charges; collect every criterion mismatch.

    Trial k draws from its own substream, so results are independent of
    how a parallel runner partitions the work.
    """
    from .rng import substream

    mismatches = []
    for k in range(start, start + trials):
        Z = random_charge(q, substream(seed, k), max_den)
        for bad in equivalence_mismatches(Z):
            bad["trial"] = k
            mismatches.append(bad)
    return mismatches


def modules_sorted(mods: Iterable[StringModule]) -> list[StringModule]:
    return sorted(mods, key=lambda m: (m.i, m.j))
