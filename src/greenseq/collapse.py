"""Arrow collapsing: project an affine quiver, its modules and charges.

Collapsing the arrows in X deletes those sign positions and identifies
the endpoints of each deleted arrow.  The vertex map pi is monotone,
periodic with pi(i+n) = pi(i) + (n - |X|), pinned by pi(1) = 1, and
constant exactly across collapsed arrows.  Modules whose ends hit X die;
the rest map to M(pi(i), pi(j)).  Summing charge entries over pi-fibers
preserves the slope of every surviving module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .charges import CentralCharge
from .errors import InvalidQuiver
from .quivers import (
    MINUS,
    PLUS,
    Quiver,
    QuiverKind,
    StringModule,
    affine_a,
    canonicalize,
    cycle_quiver,
    string_module,
)


@dataclass(frozen=True)
class ProjectionMap:
    source: Quiver
    arrows: tuple[int, ...]  # collapsed arrow positions, sorted, in [1, n]
    target: Quiver

    @cached_property
    def _table(self) -> tuple[int, ...]:
        # pi(1), ..., pi(n+1); pi increments after every surviving arrow
        hits = set(self.arrows)
        table = [1]
        for t in range(1, self.source.n + 1):
            table.append(table[-1] + (0 if t in hits else 1))
        return tuple(table)

    def pi(self, i: int) -> int:
        q, r = divmod(i - 1, self.source.n)
        return self._table[r] + q * self.target.n

    def to_json(self) -> dict:
        return {
            "collapse": list(self.arrows),
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "pi": {str(i): self.pi(i) for i in range(1, self.source.n + 1)},
        }


def collapse(q: Quiver, arrows) -> ProjectionMap:
    """Collapse the arrow positions in ``arrows`` (mod-n values in [1, n])."""
    if q.kind is not QuiverKind.AFFINE_A:
        raise InvalidQuiver("collapsing is defined for affine quivers")
    hits = set()
    for x in arrows:
        if type(x) is not int:  # the StringModule rule
            raise ValueError(f"arrows must be integers, got {x!r}")
        hits.add(((x - 1) % q.n) + 1)
    if len(hits) > q.n - 2:
        raise InvalidQuiver(f"can collapse at most n-2 = {q.n - 2} arrows")
    word = [q.sign(t) for t in range(1, q.n + 1) if t not in hits]
    if MINUS not in word:
        if len(word) < 4:
            raise InvalidQuiver("all-plus target needs n >= 4 (oriented cycle)")
        target: Quiver = cycle_quiver(len(word))
    elif PLUS not in word:
        raise InvalidQuiver("collapsing may not leave an all-minus cycle")
    else:
        target = affine_a("".join("+" if s == PLUS else "-" for s in word))
    return ProjectionMap(q, tuple(sorted(hits)), target)


def project_module(p: ProjectionMap, m: StringModule) -> StringModule | None:
    """Image of a module; None when an endpoint lies on a collapsed arrow."""
    canonicalize(p.source, m)
    n = p.source.n
    qi, ri = divmod(m.i - 1, n)
    qj, rj = divmod(m.j - 1, n)
    # an end q*n + r + 1 dies on a collapsed arrow r + 1 and otherwise
    # maps to pi = table[r] + q*n' (see ProjectionMap.pi)
    if ri + 1 in p.arrows or rj + 1 in p.arrows:
        return None
    table, n2 = p._table, p.target.n
    return string_module(p.target, table[ri] + qi * n2, table[rj] + qj * n2)


def project_set(p: ProjectionMap, mods) -> frozenset[StringModule]:
    out = set()
    for m in mods:
        image = project_module(p, m)
        if image is not None:
            out.add(image)
    return frozenset(out)


def project_charge(p: ProjectionMap, Z: CentralCharge) -> CentralCharge:
    """Sum a- and b-entries over pi-fibers; surviving slopes are unchanged."""
    if Z.quiver != p.source:
        raise ValueError("charge does not live on the source quiver")
    n2 = p.target.n
    a = [None] * (n2 + 1)
    b = [None] * (n2 + 1)
    for t in range(1, p.source.n + 1):
        r = p.pi(t)
        r = ((r - 1) % n2) + 1
        if a[r] is None:
            a[r], b[r] = Z.a[t - 1], Z.b[t - 1]
        else:
            a[r] += Z.a[t - 1]
            b[r] += Z.b[t - 1]
    return CentralCharge(p.target, tuple(a[1:]), tuple(b[1:]))
