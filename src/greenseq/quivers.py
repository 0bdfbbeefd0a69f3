"""Sign-function quivers, string modules and their combinatorics.

Three families are supported, written in the text syntax accepted by
:func:`parse_quiver`:

* ``A:<signs>``    linear quiver with n vertices; the sign word has the
  n-1 interior signs, position 0 and n carry the neutral sign 0.
* ``At:<signs>``   cyclic quiver on n = a+b vertices; the sign word has
  length n and is extended n-periodically to all integers.  ``+`` at
  position t means the edge t <- t+1, ``-`` means t -> t+1.
* ``Dcyc:<n>``     the fully oriented n-cycle (all signs ``+``) with the
  nilpotency cut-off: modules have length at most n-1.

A string module ``M(i, j)`` (i < j) lives on the interval (i, j] of the
universal cover; its dimension vector adds one basis vector for every
residue class met by the interval.  Building a :class:`StringModule`
validates it and, for the cyclic families, shifts it so that
0 <= i < n; module equality is equality of canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product

from .errors import InvalidModule, InvalidQuiver

PLUS = 1
MINUS = -1

_SIGN_CHARS = {"+": PLUS, "-": MINUS}
_SIGN_NAMES = {PLUS: "+", MINUS: "-"}


class QuiverKind(Enum):
    FINITE_A = "A"
    AFFINE_A = "At"
    CYCLE = "Dcyc"


@dataclass(frozen=True)
class Quiver:
    """Immutable quiver description: a kind plus its sign word.

    ``signs`` stores +1/-1 per position: the n-1 interior positions for
    FINITE_A, the full n-periodic word for AFFINE_A, and n copies of +1
    for CYCLE (kept explicit so the accessor code is uniform).
    """

    kind: QuiverKind
    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (PLUS, MINUS) for s in self.signs):
            raise InvalidQuiver("signs must be +1 or -1")
        if self.kind is QuiverKind.AFFINE_A:
            if PLUS not in self.signs or MINUS not in self.signs:
                raise InvalidQuiver("affine quiver needs at least one + and one - sign")
        elif self.kind is QuiverKind.CYCLE:
            if len(self.signs) < 4:
                raise InvalidQuiver("oriented cycle needs n >= 4")
            if MINUS in self.signs:
                raise InvalidQuiver("oriented cycle has all signs +")

    @cached_property
    def n(self) -> int:
        return len(self.signs) + 1 if self.kind is QuiverKind.FINITE_A else len(self.signs)

    @property
    def is_cyclic(self) -> bool:
        return self.kind is not QuiverKind.FINITE_A

    @cached_property
    def a(self) -> int:
        """Number of + signs (clockwise arrows); cyclic kinds only."""
        if not self.is_cyclic:
            raise InvalidQuiver("a/b counts are defined for cyclic quivers")
        return self.signs.count(PLUS)

    @cached_property
    def b(self) -> int:
        if not self.is_cyclic:
            raise InvalidQuiver("a/b counts are defined for cyclic quivers")
        return self.signs.count(MINUS)

    def sign(self, i: int) -> int:
        """Sign at position i: 0 at the ends of a linear quiver, periodic otherwise."""
        if self.kind is QuiverKind.FINITE_A:
            if i == 0 or i == self.n:
                return 0
            if not 0 < i < self.n:
                raise ValueError(f"position {i} outside [0, {self.n}]")
            return self.signs[i - 1]
        return self.signs[(i - 1) % self.n]

    @cached_property
    def _by_sign(self) -> dict[int, tuple[int, ...]]:
        """The positions 1..n of each sign, listed once per quiver."""
        signs = [self.sign(t) for t in range(1, self.n + 1)]
        return {s: tuple([t for t, v in enumerate(signs, 1) if v == s]) for s in (PLUS, MINUS)}

    def positives(self) -> tuple[int, ...]:
        return self._by_sign[PLUS]

    def negatives(self) -> tuple[int, ...]:
        return self._by_sign[MINUS]

    def sign_word(self) -> str:
        return "".join(_SIGN_NAMES[s] for s in self.signs)

    def label(self) -> str:
        if self.kind is QuiverKind.CYCLE:
            return f"Dcyc:{self.n}"
        return f"{self.kind.value}:{self.sign_word()}"

    def __repr__(self) -> str:
        return f"Quiver({self.label()!r})"

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "n": self.n}
        if self.kind is not QuiverKind.CYCLE:
            out["signs"] = self.sign_word()
        return out


def _parse_word(word: str) -> tuple[int, ...]:
    try:
        return tuple([_SIGN_CHARS[c] for c in word])
    except KeyError as exc:
        raise InvalidQuiver(f"bad sign character in {word!r}") from exc


def finite_a(word: str) -> Quiver:
    """Linear quiver A_n from its interior sign word (may be empty: A_1)."""
    return Quiver(QuiverKind.FINITE_A, _parse_word(word))


def affine_a(word: str) -> Quiver:
    if len(word) < 2:
        raise InvalidQuiver("affine sign word needs length >= 2")
    return Quiver(QuiverKind.AFFINE_A, _parse_word(word))


#: Largest oriented cycle: a cycle stores its n signs, so a larger size
#: is refused before they are allocated.
MAX_CYCLE_SIZE = 1_000_000


def cycle_quiver(n: int) -> Quiver:
    if n > MAX_CYCLE_SIZE:
        raise InvalidQuiver(f"oriented cycle size {n} exceeds the cap of {MAX_CYCLE_SIZE}")
    return Quiver(QuiverKind.CYCLE, (PLUS,) * n)


def parse_quiver(spec: str) -> Quiver:
    """Parse ``A:<signs>``, ``At:<signs>`` or ``Dcyc:<n>``."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise InvalidQuiver(f"missing ':' in quiver spec {spec!r}")
    if head == "A":
        return finite_a(rest)
    if head == "At":
        return affine_a(rest)
    if head == "Dcyc":
        try:
            n = int(rest)
        except ValueError as exc:
            raise InvalidQuiver(f"bad cycle size {rest!r}") from exc
        return cycle_quiver(n)
    raise InvalidQuiver(f"unknown quiver kind {head!r}")


@dataclass(frozen=True)
class StringModule:
    """String module M(i, j) on the interval (i, j], stored canonically.

    Building one is the module check (integer ends, i < j, ends in
    [0, n] on A_n, length < n on the cycle), then shifts cyclic ends to
    0 <= i < n.
    Non-exceptional affine strings pass: submodule closures contain
    them, and only :func:`string_module` refuses them.  Modules hash by
    (i, j); equality also compares the quiver.
    """

    quiver: Quiver
    i: int
    j: int

    def __post_init__(self):
        q, i, j = self.quiver, self.i, self.j
        if type(i) is not int or type(j) is not int:
            raise InvalidModule(f"ends must be integers, got ({i!r}, {j!r})")
        if i >= j:
            raise InvalidModule(f"need i < j, got ({i}, {j})")
        n = q.n
        if q.kind is QuiverKind.FINITE_A:
            if i < 0 or j > n:
                raise InvalidModule(f"({i}, {j}) outside [0, {n}]")
            return
        if q.kind is QuiverKind.CYCLE and j - i > n - 1:
            raise InvalidModule(f"cycle module length {j - i} exceeds {n - 1}")
        shift = i % n - i
        if shift:
            object.__setattr__(self, "i", i + shift)
            object.__setattr__(self, "j", j + shift)

    def __hash__(self) -> int:
        return hash((self.i, self.j))

    @property
    def length(self) -> int:
        return self.j - self.i

    @property
    def is_exceptional(self) -> bool:
        """False exactly when q is affine, j-i >= n and both ends carry
        the same sign (a cycle module is shorter than n)."""
        q = self.quiver
        signs = q.signs
        n = len(signs)
        return not (
            q.kind is QuiverKind.AFFINE_A
            and self.j - self.i >= n
            and signs[(self.i - 1) % n] == signs[(self.j - 1) % n]
        )

    def dim_vector(self) -> tuple[int, ...]:
        q = self.quiver
        n = q.n
        dim = [0] * n
        for t in range(self.i + 1, self.j + 1):
            dim[(t - 1) % n] += 1
        return tuple(dim)

    def __repr__(self) -> str:
        return f"M({self.i},{self.j})"

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j}


def canonicalize(q: Quiver, m: StringModule) -> StringModule:
    """m, after checking that it is a module of q (every built module is
    already valid and canonical)."""
    if m.quiver is not q and m.quiver != q:
        raise ValueError("module belongs to a different quiver")
    return m


def string_module(q: Quiver, i: int, j: int) -> StringModule:
    """Validated, canonicalized, exceptional string module M(i, j)."""
    m = StringModule(q, i, j)
    if q.kind is QuiverKind.AFFINE_A and not m.is_exceptional:
        raise InvalidModule(
            f"({i}, {j}) is not exceptional: equal end signs with length {j - i} >= n = {q.n}"
        )
    return m


def indecomposable_submodules(q: Quiver, m: StringModule) -> frozenset[StringModule]:
    """All indecomposable submodules of m, including m itself.

    A substring M(i', j') of M(i, j) is a submodule exactly when each cut
    is either an original end or points into the interval: i' = i or
    sign(i') = -, and j' = j or sign(j') = +.
    """
    canonicalize(q, m)
    i, j = m.i, m.j
    lefts = [i] + [t for t in range(i + 1, j) if q.sign(t) == MINUS]
    rights = [j] + [t for t in range(i + 1, j) if q.sign(t) == PLUS]
    return frozenset(StringModule(q, p, r) for p, r in product(lefts, rights) if p < r)


def hom_dim(q: Quiver, m: StringModule, n_mod: StringModule) -> int:
    """dim Hom(m, n) via graph maps: one per cover lift of n whose
    support meets that of m in an interval (p, r] that is a quotient
    string of m and a submodule string of the lift.

    Each lift does constant work.  A quotient string of M(i, j) is cut
    at its original ends or where it points out of the interval: the
    left cut p = i or sign(p) = +, the right cut r = j or sign(r) = -.
    A submodule string of the lift M(i', j') is cut the other way: p = i'
    or sign(p) = -, r = j' or sign(r) = +.  A common interval can
    therefore not be cut in the interior of both, so p lies in {i, i'}
    and r in {j, j'}: at most 2 x 2 candidates.  An interior cut also
    has to lie inside the other interval, which leaves p = max(i, i')
    and r = min(j, j'), the overlap itself; it counts when it is
    nonempty and each end that is interior to one of the two strings
    carries that string's cut sign.

    The lift window is the exact overlap range of the two supports,
    which contains the +-2 periods that exceptional modules can ever
    use.  Independent check: ``tests/intertwiner.py`` computes the same
    dimension as the nullspace of the intertwiner equations.
    """
    if m.quiver is not q:
        canonicalize(q, m)
    if n_mod.quiver is not q:
        canonicalize(q, n_mod)
    mi, mj = m.i, m.j
    ni, nj = n_mod.i, n_mod.j
    # interior positions only: 1..n-1 on A_n (len(signs) = n - 1), any
    # integer on the periodic kinds (len(signs) = n)
    signs = q.signs
    period = len(signs)
    if q.kind is QuiverKind.FINITE_A:
        shifts = (0,)
    else:
        lo = -((nj - mi) // period)  # ceil((m.i - n.j)/n)
        hi = (mj - ni) // period
        shifts = range(lo * period, (hi + 1) * period, period)
    count = 0
    for s in shifts:
        a = ni + s
        b = nj + s
        if a >= mj or b <= mi:
            continue
        # an end interior to the lift is a submodule cut, one interior
        # to m a quotient cut
        if mi > a:
            if signs[(mi - 1) % period] != MINUS:
                continue
        elif a > mi and signs[(a - 1) % period] != PLUS:
            continue
        if mj < b:
            if signs[(mj - 1) % period] != PLUS:
                continue
        elif b < mj and signs[(b - 1) % period] != MINUS:
            continue
        count += 1
    return count


def all_sign_words(n: int) -> list[str]:
    """Every +/- word of length n (test/CLI sweep helper)."""
    return ["".join(w) for w in product("+-", repeat=n)]
