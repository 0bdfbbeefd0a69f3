"""Independent exact reference for checking the program's answers.

Everything here is rebuilt from the definitions in the paper, with no
call into ``greenseq``: quivers are (kind, n, signs) triples, charges
are lists of ``Fraction``, modules are ``(i, j)`` pairs in the same
canonical form the library uses (``0 <= i < n`` on cyclic quivers).

Stability is decided with the chord picture on denominator-cleared
integers, so it shares no code with the oracle the library runs in
``stable_set``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

PLUS, MINUS = 1, -1


class RefQuiver:
    """Quiver from a spec string ``A:<signs>``, ``At:<signs>`` or ``Dcyc:<n>``."""

    def __init__(self, spec: str):
        head, _, rest = spec.partition(":")
        self.spec = spec
        self.kind = head
        if head == "Dcyc":
            self.signs = (PLUS,) * int(rest)
        else:
            self.signs = tuple(PLUS if c == "+" else MINUS for c in rest)
        self.n = len(self.signs) + 1 if head == "A" else len(self.signs)

    @property
    def cyclic(self) -> bool:
        return self.kind != "A"

    def sign(self, t: int) -> int:
        if not self.cyclic:
            return 0 if t in (0, self.n) else self.signs[t - 1]
        return self.signs[(t - 1) % self.n]

    @property
    def a(self) -> int:
        return self.signs.count(PLUS)

    @property
    def b(self) -> int:
        return self.signs.count(MINUS)

    def canon(self, i: int, j: int) -> tuple[int, int]:
        if not self.cyclic:
            return (i, j)
        s = (i % self.n) - i
        return (i + s, j + s)

    def candidates(self) -> list[tuple[int, int]]:
        """Every module that can be stable under a finite charge."""
        n = self.n
        if self.kind == "A":
            return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        if self.kind == "Dcyc":
            return [(i, i + d) for i in range(n) for d in range(1, n)]
        return [
            (i, i + d)
            for i in range(n)
            for d in range(1, 2 * n)
            if d < n or self.sign(i) != self.sign(i + d)
        ]

    def max_length(self) -> int:
        """C(a+b, 2) + ab (affine), C(n, 2) + n - 1 (cycle), n(n+1)/2 (A_n)."""
        if self.kind == "At":
            return comb(self.a + self.b, 2) + self.a * self.b
        if self.kind == "Dcyc":
            return comb(self.n, 2) + self.n - 1
        return self.n * (self.n + 1) // 2


class Classified:
    """Chord classification of every candidate module under one charge."""

    def __init__(self, q: RefQuiver, a, b):
        self.q = q
        la = lcm(*(v.denominator for v in a))
        lb = lcm(*(v.denominator for v in b))
        arow = [int(v * la) for v in a]
        brow = [int(v * lb) for v in b]
        n = q.n
        span = n if not q.cyclic else 3 * n
        ys, xs = [0], [0]
        for t in range(span):
            ys.append(ys[-1] + arow[t % n])
            xs.append(xs[-1] + brow[t % n])
        self.la, self.lb, self.ys, self.xs = la, lb, ys, xs
        self.stable: set[tuple[int, int]] = set()
        self.semistable: set[tuple[int, int]] = set()
        sig = [q.sign(t) for t in range(span + 1)]
        for i, j in q.candidates():
            yi, xi = ys[i], xs[i]
            dy, dx = ys[j] - yi, xs[j] - xi
            worst = None
            for t in range(i + 1, j):
                s = dx * (ys[t] - yi) - dy * (xs[t] - xi)
                if sig[t] == MINUS:
                    s = -s
                if worst is None or s < worst:
                    worst = s
                    if s < 0:
                        break
            if worst is None or worst >= 0:
                self.semistable.add((i, j))
                if worst is None or worst > 0:
                    self.stable.add((i, j))

    def slope(self, m: tuple[int, int]) -> Fraction:
        i, j = m
        return Fraction((self.ys[j] - self.ys[i]) * self.lb, (self.xs[j] - self.xs[i]) * self.la)

    def generic(self, keep=lambda s: True) -> bool:
        """No strict semistable and no slope tie among the kept modules."""
        stable = {m for m in self.stable if keep(self.slope(m))}
        semi = {m for m in self.semistable if keep(self.slope(m))}
        return semi == stable and len({self.slope(m) for m in stable}) == len(stable)


def is_finite(q: RefQuiver, a, b) -> bool:
    """Affine: some + index sits strictly below some - index on the critical line."""
    if q.kind != "At":
        return True
    c = sum(a) / sum(b)
    y = x = Fraction(0)
    heights = {}
    for t in range(1, q.n + 1):
        y += a[t - 1]
        x += b[t - 1]
        heights[t] = y - c * x
    pos = [heights[t] for t in range(1, q.n + 1) if q.sign(t) == PLUS]
    neg = [heights[t] for t in range(1, q.n + 1) if q.sign(t) == MINUS]
    return min(pos) < max(neg)


def valid_pairs(q: RefQuiver) -> list[tuple[int, int]]:
    """(k, l) with sign(k) = +, sign(l) = -, 1 <= k <= n, k < l < k + n."""
    n = q.n
    return [
        (k, r if r > k else r + n)
        for k in range(1, n + 1)
        if q.sign(k) == PLUS
        for r in range(1, n + 1)
        if q.sign(r) == MINUS
    ]


def is_linear(q: RefQuiver, k: int, l: int) -> bool:
    """Cond1: inside (k, l) every - precedes every +.  Cond2: inside
    (l, k + n) every + precedes every -."""

    def ordered(lo, hi, first):
        seen_second = False
        for t in range(lo + 1, hi):
            if q.sign(t) != first:
                seen_second = True
            elif seen_second:
                return False
        return True

    return ordered(k, l, MINUS) or ordered(l, k + q.n, PLUS)


def skl(q: RefQuiver, k: int, l: int) -> set[tuple[int, int]]:
    """S(k, l): pairs within A, within B, and B with both A and A - n."""
    n = q.n
    A = sorted({l} | {j for j in range(k + 1, k + n) if q.sign(j) == PLUS})
    B = sorted({k} | {i for i in range(l - n + 1, l) if q.sign(i) == MINUS})
    out = set()
    for group in (A, B):
        for x, i in enumerate(group):
            for j in group[x + 1 :]:
                out.add(q.canon(i, j))
    for i in B:
        for j in A:
            for jj in (j, j - n):
                out.add(q.canon(min(i, jj), max(i, jj)))
    return out


def sk(q: RefQuiver, k: int) -> set[tuple[int, int]]:
    """S(k) on the oriented cycle: k <= i < j <= k + n with j - i < n."""
    n = q.n
    return {
        q.canon(i, j) for i in range(k, k + n) for j in range(i + 1, k + n + 1) if j - i < n
    }


def collapse_target(word: str, x: int) -> tuple[str | None, list[int]]:
    """Collapse arrow x of ``At:<word>``: the target spec (None when the
    target is degenerate) and the vertex map table pi(1..n+1)."""
    rest = word[: x - 1] + word[x:]
    if "-" not in rest:
        spec = f"Dcyc:{len(rest)}" if len(rest) >= 4 else None
    elif "+" not in rest:
        spec = None
    else:
        spec = f"At:{rest}"
    table = [1]
    for t in range(1, len(word) + 1):
        table.append(table[-1] + (0 if t == x else 1))
    return spec, table


def pi(table: list[int], n: int, n2: int, i: int) -> int:
    q, r = divmod(i - 1, n)
    return table[r] + q * n2
