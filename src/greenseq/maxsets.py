"""Maximum-size stable sets: S(k, l) for affine quivers, S(k) for cycles."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvalidQuiver, VerificationFailed
from .quivers import MINUS, PLUS, Quiver, QuiverKind, StringModule


@dataclass(frozen=True)
class MaxSetDescriptor:
    """The canonical maximal stable set attached to an essential pair (k, l).

    A holds l and every positive index strictly between k and k+n (size a);
    B holds k and every negative index strictly between l-n and l (size b).
    The module set pairs A with A, B with B, and B with both A and A-n.
    """

    quiver: Quiver
    k: int
    l: int
    A: tuple[int, ...]
    B: tuple[int, ...]
    modules: frozenset[StringModule]

    def __len__(self) -> int:
        return len(self.modules)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "A": list(self.A),
            "B": list(self.B),
            "modules": [m.to_json() for m in sorted(self.modules, key=lambda m: (m.i, m.j))],
        }


def _check_int(name: str, v) -> None:
    # the StringModule rule: bool, float, Fraction and str are refused
    if type(v) is not int:
        raise ValueError(f"{name} must be an integer, got {v!r}")


def check_pair(q: Quiver, k: int, l: int) -> None:
    """Raise unless (k, l) indexes a maximal set S(k, l) of q."""
    if q.kind is not QuiverKind.AFFINE_A:
        raise InvalidQuiver("maximal sets S(k,l) are defined for affine quivers")
    _check_int("k", k)
    _check_int("l", l)
    if not 1 <= k <= q.n:
        raise ValueError(f"k = {k} must lie in [1, {q.n}]")
    if not k < l < k + q.n:
        raise ValueError(f"need k < l < k+n, got ({k}, {l})")
    if q.sign(k) != PLUS:
        raise ValueError(f"sign at k = {k} must be +")
    if q.sign(l) != MINUS:
        raise ValueError(f"sign at l = {l} must be -")


def _skl_pairs(
    q: Quiver, k: int, l: int
) -> tuple[tuple[int, ...], tuple[int, ...], set[tuple[int, int]]]:
    """(A, B, the canonical (i, j) pairs of S(k, l)), 0 <= i < n.

    Every member is exceptional, so a module built from a pair needs no
    exceptionality check: two ends inside A (or inside B) lie less than
    n apart, and the two ends of a B x A pair that spans n or more have
    opposite signs.
    """
    check_pair(q, k, l)
    n = q.n
    signs = q.signs
    A = tuple(sorted([l] + [j for j in range(k + 1, k + n) if signs[(j - 1) % n] == PLUS]))
    B = tuple(sorted([k] + [i for i in range(l - n + 1, l) if signs[(i - 1) % n] == MINUS]))
    ends = [(i, j) for idx, i in enumerate(A) for j in A[idx + 1 :]]
    ends += [(i, j) for idx, i in enumerate(B) for j in B[idx + 1 :]]
    for i in B:
        for j in A:
            ends.append((i, j) if i < j else (j, i))
            ends.append((i, j - n) if i < j - n else (j - n, i))
    pairs = {(i % n, j - i + i % n) for i, j in ends}
    expected = max_mgs_length(q)
    if len(A) != q.a or len(B) != q.b or len(pairs) != expected:
        raise VerificationFailed(
            f"S({k},{l}) construction produced {len(pairs)} modules, expected {expected}"
        )
    return A, B, pairs


def build_Skl(q: Quiver, k: int, l: int) -> MaxSetDescriptor:
    """Construct S(k, l); the size is always C(a+b, 2) + a*b."""
    return _build_Skl(q, k, l, {})


def _build_Skl(
    q: Quiver, k: int, l: int, built: dict[tuple[int, int], StringModule]
) -> MaxSetDescriptor:
    """build_Skl, taking members from ``built``, a (i, j) -> module dict
    shared by the sets of one quiver, and adding the ones it builds."""
    A, B, pairs = _skl_pairs(q, k, l)
    mods = []
    for ij in pairs:
        m = built.get(ij)
        if m is None:
            m = built[ij] = StringModule(q, *ij)
        mods.append(m)
    return MaxSetDescriptor(q, k, l, A, B, frozenset(mods))


def _sk_pairs(q: Quiver, k: int) -> set[tuple[int, int]]:
    """The canonical (i, j) pairs of S(k): k <= i < j <= k+n, j-i < n."""
    if q.kind is not QuiverKind.CYCLE:
        raise InvalidQuiver("S(k) is defined for the oriented cycle")
    _check_int("k", k)
    n = q.n
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must lie in [1, {n}]")
    pairs = {
        (i % n, j - i + i % n)
        for i in range(k, k + n)
        for j in range(i + 1, min(i + n, k + n + 1))
    }
    if len(pairs) != max_mgs_length(q):
        raise VerificationFailed("S(k) has the wrong cardinality")
    return pairs


def build_Sk(q: Quiver, k: int) -> frozenset[StringModule]:
    """Cycle analogue: modules M(i, j) with k <= i < j <= k+n, j-i < n."""
    return frozenset([StringModule(q, i, j) for i, j in _sk_pairs(q, k)])


def valid_pairs(q: Quiver) -> list[tuple[int, int]]:
    """All (k, l) with sign(k)=+, sign(l)=-, k in [1,n], k < l < k+n."""
    if q.kind is not QuiverKind.AFFINE_A:
        raise InvalidQuiver("pairs (k,l) are defined for affine quivers")
    out = []
    for k in q.positives():
        for r in q.negatives():
            l = r if r > k else r + q.n
            out.append((k, l))
    return out


def enumerate_max_sets(q: Quiver) -> list[tuple[MaxSetDescriptor, int]]:
    """One descriptor per valid (k, l), tagged with its equality class.

    Class ids number the distinct module sets in order of first
    appearance; for (a, b) != (2, 2) all a*b sets are distinct.  The
    sets share their members: each distinct module is built once.
    """
    built: dict[tuple[int, int], StringModule] = {}
    descriptors = [_build_Skl(q, k, l, built) for k, l in valid_pairs(q)]
    classes: dict[frozenset[StringModule], int] = {}
    out = []
    for d in descriptors:
        cid = classes.setdefault(d.modules, len(classes))
        out.append((d, cid))
    return out


def max_mgs_length(q: Quiver) -> int:
    """Largest possible number of stable modules of a finite green path."""
    if q.kind is QuiverKind.AFFINE_A:
        return comb(q.a + q.b, 2) + q.a * q.b
    if q.kind is QuiverKind.CYCLE:
        return comb(q.n, 2) + q.n - 1
    return q.n * (q.n + 1) // 2
