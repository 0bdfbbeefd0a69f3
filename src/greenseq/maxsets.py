"""Maximum-size stable sets: S(k, l) for affine quivers, S(k) for cycles."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvalidQuiver, VerificationFailed
from .quivers import MINUS, PLUS, Quiver, QuiverKind, StringModule, string_module


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


def check_pair(q: Quiver, k: int, l: int) -> None:
    """Raise unless (k, l) indexes a maximal set S(k, l) of q."""
    if q.kind is not QuiverKind.AFFINE_A:
        raise InvalidQuiver("maximal sets S(k,l) are defined for affine quivers")
    if not 1 <= k <= q.n:
        raise ValueError(f"k = {k} must lie in [1, {q.n}]")
    if not k < l < k + q.n:
        raise ValueError(f"need k < l < k+n, got ({k}, {l})")
    if q.sign(k) != PLUS:
        raise ValueError(f"sign at k = {k} must be +")
    if q.sign(l) != MINUS:
        raise ValueError(f"sign at l = {l} must be -")


def build_Skl(q: Quiver, k: int, l: int) -> MaxSetDescriptor:
    """Construct S(k, l); the size is always C(a+b, 2) + a*b."""
    check_pair(q, k, l)
    n = q.n
    A = tuple(sorted({l} | {j for j in range(k + 1, k + n) if q.sign(j) == PLUS}))
    B = tuple(sorted({k} | {i for i in range(l - n + 1, l) if q.sign(i) == MINUS}))
    mods: set[StringModule] = set()
    for idx, i in enumerate(A):
        for j in A[idx + 1 :]:
            mods.add(string_module(q, i, j))
    for idx, i in enumerate(B):
        for j in B[idx + 1 :]:
            mods.add(string_module(q, i, j))
    for i in B:
        for j in A:
            mods.add(string_module(q, min(i, j), max(i, j)))
            mods.add(string_module(q, min(i, j - n), max(i, j - n)))
    expected = max_mgs_length(q)
    if len(A) != q.a or len(B) != q.b or len(mods) != expected:
        raise VerificationFailed(
            f"S({k},{l}) construction produced {len(mods)} modules, expected {expected}"
        )
    return MaxSetDescriptor(q, k, l, A, B, frozenset(mods))


def build_Sk(q: Quiver, k: int) -> frozenset[StringModule]:
    """Cycle analogue: modules M(i, j) with k <= i < j <= k+n, j-i < n."""
    if q.kind is not QuiverKind.CYCLE:
        raise InvalidQuiver("S(k) is defined for the oriented cycle")
    n = q.n
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must lie in [1, {n}]")
    mods = frozenset(
        string_module(q, i, j)
        for i in range(k, k + n)
        for j in range(i + 1, k + n + 1)
        if j - i < n
    )
    if len(mods) != max_mgs_length(q):
        raise VerificationFailed("S(k) has the wrong cardinality")
    return mods


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
    appearance; for (a, b) != (2, 2) all a*b sets are distinct.
    """
    descriptors = [build_Skl(q, k, l) for k, l in valid_pairs(q)]
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
