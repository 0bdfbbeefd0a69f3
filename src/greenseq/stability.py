"""Stability criteria, stable-set enumeration and green sequences.

Three equivalent tests decide (semi)stability of a string module M(i, j)
under a charge Z:

* oracle - compare the slope of every proper indecomposable submodule
  against the slope of the module (the definition, run literally);
* chord  - every intermediate positive dual vertex must sit on/above the
  chord p_i p_j and every negative one on/below;
* wire   - at the crossing abscissa of wires i and j, every intermediate
  positive wire passes above the crossing and every negative one below.

All three are implemented on the exact integer context of the charge and
are exposed separately; the fuzz entry point checks that they agree.
Stable sets, green sequences and splices do not run them: they read
:func:`classify`, one integer sweep per charge that decides stability,
semistability and the slope of every candidate at once.
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
    _module,
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
    xs = tuple(as_fraction(v) for v in x)
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


def _oracle(Z: CentralCharge, i: int, j: int, strict: bool) -> bool:
    ctx = Z._ctx
    ya, xb, sig = ctx.ya, ctx.xb, ctx.sig
    num = ya[j] - ya[i]
    den = xb[j] - xb[i]
    lefts = [i]
    rights = [j]
    for t in range(i + 1, j):
        s = sig[t]
        if s == MINUS:
            lefts.append(t)
        else:
            rights.append(t)
    for p in lefts:
        yp, xp = ya[p], xb[p]
        for r in rights:
            if p < r and (p != i or r != j):
                # sign of slope(M(p,r)) - slope(M(i,j)), denominators > 0
                value = (ya[r] - yp) * den - num * (xb[r] - xp)
                if value < 0 or (strict and value == 0):
                    return False
    return True


def _criterion(kernel, Z: CentralCharge, m: StringModule, strict: bool) -> bool:
    m = canonicalize(Z.quiver, m)  # the kernels index the context from 0
    Z._widen_ctx(m.j)
    return kernel(Z, m.i, m.j, strict)


def is_semistable_oracle(Z: CentralCharge, m: StringModule) -> bool:
    """Every proper indecomposable submodule has slope >= slope(m)."""
    return _criterion(_oracle, Z, m, strict=False)


def is_stable_oracle(Z: CentralCharge, m: StringModule) -> bool:
    """Every proper indecomposable submodule has slope > slope(m)."""
    return _criterion(_oracle, Z, m, strict=True)


def _chord(Z: CentralCharge, i: int, j: int, strict: bool) -> bool:
    ctx = Z._ctx
    ya, xb, sig = ctx.ya, ctx.xb, ctx.sig
    yi, xi = ya[i], xb[i]
    dy = ya[j] - yi
    dx = xb[j] - xi
    for k in range(i + 1, j):
        # cross product: + when the dual vertex p_k lies above the chord
        s = dx * (ya[k] - yi) - dy * (xb[k] - xi)
        if sig[k] == MINUS:
            s = -s
        if s < 0 or (strict and s == 0):
            return False
    return True


def is_semistable_chord(Z: CentralCharge, m: StringModule) -> bool:
    """Intermediate positive vertices on/above the chord, negative on/below."""
    return _criterion(_chord, Z, m, strict=False)


def is_stable_chord(Z: CentralCharge, m: StringModule) -> bool:
    """Semistable with no dual vertex on the open chord (strict sides)."""
    return _criterion(_chord, Z, m, strict=True)


def _wire(Z: CentralCharge, i: int, j: int, strict: bool) -> bool:
    ctx = Z._ctx
    ya, xb, sig = ctx.ya, ctx.xb, ctx.sig
    yi, xi = ya[i], xb[i]
    # crossing abscissa t = t_num / t_den of wires i and j, unreduced; t_den > 0
    t_num = (ya[j] - yi) * ctx.lb
    t_den = (xb[j] - xi) * ctx.la
    la_num = t_num * ctx.la
    lb_den = t_den * ctx.lb
    for k in range(i + 1, j):
        # sign of f_k(t) - f_i(t) after clearing the two scale factors
        s = (ya[k] - yi) * lb_den - la_num * (xb[k] - xi)
        if sig[k] == MINUS:
            s = -s
        if s < 0 or (strict and s == 0):
            return False
    return True


def is_semistable_wire(Z: CentralCharge, m: StringModule) -> bool:
    """Positive wires pass on/over the crossing of wires i, j; negative under."""
    return _criterion(_wire, Z, m, strict=False)


def is_stable_wire(Z: CentralCharge, m: StringModule) -> bool:
    return _criterion(_wire, Z, m, strict=True)


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


def _enumerate_pairs(q: Quiver) -> Iterable[tuple[int, int]]:
    n = q.n
    if q.kind is QuiverKind.FINITE_A:
        return ((i, j) for i in range(n + 1) for j in range(i + 1, n + 1))
    if q.kind is QuiverKind.CYCLE:
        return ((i, i + d) for i in range(n) for d in range(1, n))
    sgn = q.sign
    return (
        (i, i + d)
        for i in range(n)
        for d in range(1, 2 * n)
        if d < n or sgn(i) != sgn(i + d)
    )


def candidate_modules(q: Quiver) -> list[StringModule]:
    return [_module(q, i, j) for i, j in candidate_pairs(q)]


def classify(Z: CentralCharge) -> tuple[tuple[StringModule, Fraction, bool], ...]:
    """Every semistable candidate of Z as (module, slope, is_stable),
    sorted by (i, j).  Charges keep the result as ``Z._classes``.

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
    ya, xb, sig, la, lb = ctx.ya, ctx.xb, ctx.sig, ctx.la, ctx.lb
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
            # candidate pairs are canonical, so the module needs no checks
            out.append(
                (StringModule(q, i, j), Fraction(dy * lb, dx * la), above_lo > 0 and below_hi > 0)
            )
        elif lo_y * hi_x > hi_y * lo_x:
            k = -1  # lo > hi: no longer module from this i is semistable
    return tuple(out)


def stable_set(
    Z: CentralCharge, include_semistable: bool = False
) -> frozenset[StringModule]:
    """All stable modules of Z (with the flag: all semistable modules)."""
    return frozenset(m for m, _, stable in Z._classes if stable or include_semistable)


@dataclass(frozen=True)
class GreenSequence:
    """Stable modules of a finite green path, by strictly increasing slope."""

    entries: tuple[tuple[StringModule, Fraction], ...]

    def __post_init__(self):
        slopes = [s for _, s in self.entries]
        if any(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("green sequence slopes must strictly increase")

    def modules(self) -> tuple[StringModule, ...]:
        return tuple(m for m, _ in self.entries)

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(s for _, s in self.entries)

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


def _sorted_generic(Z: CentralCharge, keep) -> list[tuple[StringModule, Fraction]]:
    """Slope-sort the stable modules, refusing ties and strict semistables."""
    kept = [(m, s, stable) for m, s, stable in Z._classes if keep(s)]
    strict = [m for m, _, stable in kept if not stable]
    if strict:
        raise NonGeneric("strict-semistable", strict)
    # floor(s * 2**64) orders like s but compares as a plain int; only
    # equal floors fall through to comparing the Fractions themselves
    entries = sorted(
        ((m, s) for m, s, _ in kept),
        key=lambda e: ((e[1].numerator << 64) // e[1].denominator, e[1], e[0].i, e[0].j),
    )
    for (m1, s1), (m2, s2) in zip(entries, entries[1:]):
        if s1 == s2:
            raise NonGeneric("tie", [m1, m2])
    return entries


def mgs(Z: CentralCharge) -> GreenSequence:
    """Maximal green sequence of a generic finite charge."""
    return GreenSequence(tuple(_sorted_generic(Z, lambda s: True)))


# ---------------------------------------------------------------------------
# spliced piecewise-linear paths


@dataclass(frozen=True)
class SplicedPath:
    """Two charges sharing the a-vector, glued at slope 0.

    The first charge rules the negative-slope half of the path, the
    second the positive-slope half.
    """

    z: CentralCharge
    z_prime: CentralCharge

    def __post_init__(self):
        if self.z.quiver != self.z_prime.quiver:
            raise SpliceInvalid("spliced charges must live on the same quiver")
        if self.z.a != self.z_prime.a:
            raise SpliceInvalid("spliced charges must share the a-vector")


def _check_no_slope_zero(Z: CentralCharge, tag: str) -> None:
    for m, s, _ in Z._classes:
        if s == 0:
            raise SpliceInvalid(f"{tag} has a semistable module of slope 0: {m!r}")


def spliced_halves(
    p: SplicedPath, include_semistable: bool = False
) -> tuple[dict[StringModule, Fraction], dict[StringModule, Fraction]]:
    """Stable (with the flag: semistable) modules and their slopes, of
    negative slope under z and of positive slope under z_prime.  The two
    charges share the a-vector, so the signs of slopes agree under both."""
    _check_no_slope_zero(p.z, "first charge")
    _check_no_slope_zero(p.z_prime, "second charge")
    return (
        {m: s for m, s, st in p.z._classes if s < 0 and (st or include_semistable)},
        {m: s for m, s, st in p.z_prime._classes if s > 0 and (st or include_semistable)},
    )


def spliced_stable_set(
    p: SplicedPath, include_semistable: bool = False
) -> frozenset[StringModule]:
    """Union of the negative-slope part of z and the positive-slope part
    of z_prime; both halves must be free of slope-0 semistables."""
    neg, pos = spliced_halves(p, include_semistable)
    return frozenset(neg.keys() | pos.keys())


def spliced_mgs(p: SplicedPath) -> GreenSequence:
    _check_no_slope_zero(p.z, "first charge")
    _check_no_slope_zero(p.z_prime, "second charge")
    first = _sorted_generic(p.z, lambda s: s < 0)
    second = _sorted_generic(p.z_prime, lambda s: s > 0)
    return GreenSequence(tuple(first + second))


# ---------------------------------------------------------------------------
# criterion-equivalence fuzzing (shared by the CLI and the test suite)


def random_charge(q: Quiver, rng: XorShift64Star, max_den: int = 64) -> CentralCharge:
    a = tuple(rng.rational(max_den, signed=True) for _ in range(q.n))
    b = tuple(rng.rational(max_den, signed=False) for _ in range(q.n))
    return CentralCharge(q, a, b)


def equivalence_mismatches(Z: CentralCharge) -> list[dict]:
    """Candidates where oracle, chord and wire disagree (should be none)."""
    out = []
    for i, j in candidate_pairs(Z.quiver):
        for strict in (False, True):
            o = _oracle(Z, i, j, strict)
            c = _chord(Z, i, j, strict)
            w = _wire(Z, i, j, strict)
            if not (o == c == w):
                out.append(
                    {
                        "module": {"i": i, "j": j},
                        "strict": strict,
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
