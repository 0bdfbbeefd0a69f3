"""The four workloads: seeded inputs, the timed operation, the check.

Each workload turns ``(seed, stream)`` into an endless, deterministic
sequence of plain-data inputs (strings and ints), runs one operation
per input against the library's public functions, and checks the
answer against :mod:`reference` outside the timed region.

* ``fuzz``    criterion-equivalence trials (``greenseq verify``):
              oracle/chord/wire kernels, ``IntContext``, ``rng``.
* ``query``   one-shot CLI requests on random finite charges:
              ``cli``, ``stable_set``, ``mgs``, ``render``.
* ``witness`` verified constructions and their green sequences:
              ``linearity``, repeated ``stable_set`` on few charges.
* ``sweep``   sign-word sweeps with no charges: ``maxsets``,
              ``is_linear_set``, ``collapse``, ``quivers.hom_dim``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction

import greenseq as gs
import greenseq.cli

import reference as ref

MAX_DEN = 64


def _word(rng: random.Random, n: int, j: int) -> str:
    """Random affine sign word of length n with 1 + j % (n - 1) plus signs.

    Cycling the sign count with the op index keeps the mix of (a, b),
    which sets the cost of an op, the same in every run.
    """
    plus = set(rng.sample(range(n), 1 + j % (n - 1)))
    return "".join("+" if t in plus else "-" for t in range(n))


def _charge_strings(rng: random.Random, q: ref.RefQuiver) -> tuple[list[str], list[str]]:
    """Random finite charge as unreduced ``p/q`` strings."""
    while True:
        a = [f"{rng.randint(-MAX_DEN, MAX_DEN)}/{rng.randint(1, MAX_DEN)}" for _ in range(q.n)]
        b = [f"{rng.randint(1, MAX_DEN)}/{rng.randint(1, MAX_DEN)}" for _ in range(q.n)]
        if ref.is_finite(q, [Fraction(v) for v in a], [Fraction(v) for v in b]):
            return a, b


class Workload:
    name = ""
    #: Ops in one tail window (see ``worker.tail``): whole periods of the
    #: input schedule, so that every window holds the same mix of inputs,
    #: and few enough that a run holds several windows.
    tail_window = 0

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, stream: str):
        """Endless input sequence; ``stream`` separates warm-up from timed ops."""
        rng = random.Random(f"greenseq-bench/{self.name}/{self.seed}/{stream}")
        k = 0
        while True:
            yield self.make_input(rng, k)
            k += 1

    def make_input(self, rng: random.Random, k: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError


class Fuzz(Workload):
    """One trial of ``fuzz_quiver`` on the A_12 / At_6 / At_12 / Dcyc_7 mix."""

    name = "fuzz"
    # A_12 twice per period: At_6 and Dcyc_7 trials are the cheapest, so
    # with equal shares the median op would sit in the gap between them
    # and A_12, where any jitter moves it; this way it falls inside A_12.
    CLASSES = ("A", "At6", "A", "At12", "Dcyc")
    tail_window = 1100  # 20 cycles of the At_12 sign count (11 values)

    def make_input(self, rng, k):
        cls = self.CLASSES[k % len(self.CLASSES)]
        if cls == "A":
            spec = "A:" + "".join(rng.choice("+-") for _ in range(11))
        elif cls == "Dcyc":
            spec = "Dcyc:7"
        else:
            spec = "At:" + _word(rng, 6 if cls == "At6" else 12, k // len(self.CLASSES))
        return (spec, rng.getrandbits(31))

    def op(self, inp):
        spec, start = inp
        return gs.fuzz_quiver(gs.parse_quiver(spec), 1, self.seed, start=start)

    def check(self, inp, out) -> bool:
        """No mismatch between the three criteria, and the chord criterion
        agrees with the reference on the trial's charge, so that kernels
        that are wrong in the same way do not pass."""
        if out != []:
            return False
        spec, start = inp
        q = gs.parse_quiver(spec)
        Z = gs.random_charge(q, gs.substream(self.seed, start))
        mods = gs.candidate_modules(q)
        c = ref.Classified(ref.RefQuiver(spec), Z.a, Z.b)
        return (
            len(mods) == len(c.q.candidates())
            and {(m.i, m.j) for m in mods if gs.is_stable_chord(Z, m)} == c.stable
            and {(m.i, m.j) for m in mods if gs.is_semistable_chord(Z, m)} == c.semistable
        )


# Request schedule for ``query``, period 80: 36 stable-set, 36 mgs,
# 4 chord and 4 wire renders, each kind spread evenly over the four
# quiver classes.  The order is shuffled once with a fixed key so that
# every seed sees the same mix.
_QUERY_SCHEDULE = (
    [(kind, cls) for kind in ("stable-set", "mgs") for cls in range(4) for _ in range(9)]
    + [(kind, cls) for kind in ("chord", "wire") for cls in range(4)]
)
random.Random("greenseq-bench/query-schedule").shuffle(_QUERY_SCHEDULE)

_DATA_MODULE = re.compile(r'class="(?:chord stable|stable-crossing)" data-module="(-?\d+),(-?\d+)"')


class Query(Workload):
    """One in-process CLI request with a fresh random finite charge."""

    name = "query"
    tail_window = 4 * len(_QUERY_SCHEDULE)

    def make_input(self, rng, k):
        kind, cls = _QUERY_SCHEDULE[k % len(_QUERY_SCHEDULE)]
        if cls == 0:
            spec = "A:" + "".join(rng.choice("+-") for _ in range(19))
        elif cls == 1:
            spec = "A:" + "".join(rng.choice("+-") for _ in range(39))
        elif cls == 2:
            spec = "At:" + _word(rng, 12, k)
        else:
            spec = "Dcyc:12"
        a, b = _charge_strings(rng, ref.RefQuiver(spec))
        charge = json.dumps({"a": a, "b": b})
        if kind in ("chord", "wire"):
            return ("render", kind, "--quiver", spec, "--charge", charge)
        return (kind, "--json", "--quiver", spec, "--charge", charge)

    def op(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = greenseq.cli.main(list(inp))
        return code, out.getvalue(), err.getvalue()

    def check(self, inp, out) -> bool:
        code, stdout, stderr = out
        q = ref.RefQuiver(inp[inp.index("--quiver") + 1])
        charge = json.loads(inp[inp.index("--charge") + 1])
        c = ref.Classified(q, [Fraction(v) for v in charge["a"]], [Fraction(v) for v in charge["b"]])
        if inp[0] == "render":
            found = {(int(i), int(j)) for i, j in _DATA_MODULE.findall(stdout)}
            return code == 0 and found == c.stable
        if inp[0] == "mgs" and not c.generic():
            return code == 1 and json.loads(stderr)["error"] == "non-generic"
        if code != 0:
            return False
        rows = json.loads(stdout)["modules"]
        mods = [(r["i"], r["j"]) for r in rows]
        slopes = [Fraction(r["slope"]) for r in rows]
        if set(mods) != c.stable or len(mods) != len(c.stable):
            return False
        if any(s != c.slope(m) for m, s in zip(mods, slopes)):
            return False
        return inp[0] != "mgs" or all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))


def _sequence(fn, target):
    """Green sequence of a witness, or the NonGeneric refusal."""
    try:
        return fn(target)
    except gs.NonGeneric as err:
        return err


class Witness(Workload):
    """One verified construction followed by its green sequence."""

    name = "witness"
    KINDS = ("spliced", "linear", "spliced", "reineke", "dn")
    tail_window = 300  # one cycle of the reineke (15) and affine (4) sizes

    def make_input(self, rng, k):
        # sizes cycle with the op index, so every run has the same size mix
        kind, j = self.KINDS[k % len(self.KINDS)], k // len(self.KINDS)
        if kind == "reineke":
            n = 10 + j % 15
            return (kind, "A:" + "".join(rng.choice("+-") for _ in range(n - 1)), 0, 0)
        if kind == "dn":
            n = 5 + j % 8
            return (kind, f"Dcyc:{n}", rng.randint(1, n), 0)
        while True:
            q = ref.RefQuiver("At:" + _word(rng, 6 + j % 4, j // 4))
            pairs = ref.valid_pairs(q)
            if kind == "linear":
                pairs = [p for p in pairs if ref.is_linear(q, *p)]
            if pairs:
                k_, l_ = rng.choice(pairs)
                return (kind, q.spec, k_, l_)

    def op(self, inp):
        kind, spec, k, l = inp
        q = gs.parse_quiver(spec)
        if kind == "spliced":
            path = gs.witness_spliced(q, k, l)
            return path, _sequence(gs.spliced_mgs, path)
        if kind == "linear":
            Z = gs.witness_linear(q, k, l)
        elif kind == "reineke":
            Z = gs.reineke_charge(q)
        else:
            Z = gs.dn_charge(q, k)
        return Z, _sequence(gs.mgs, Z)

    def check(self, inp, out) -> bool:
        kind, spec, k, l = inp
        q = ref.RefQuiver(spec)
        if kind in ("spliced", "linear"):
            target = ref.skl(q, k, l)
        elif kind == "reineke":
            target = set(q.candidates())
        else:
            target = ref.sk(q, k)
        built, seq = out
        if kind == "spliced":
            if built.z.a != built.z_prime.a:
                return False
            halves = [
                (ref.Classified(q, built.z.a, built.z.b), lambda s: s < 0),
                (ref.Classified(q, built.z_prime.a, built.z_prime.b), lambda s: s > 0),
            ]
        else:
            halves = [(ref.Classified(q, built.a, built.b), lambda s: True)]
        expected = []
        for c, keep in halves:
            expected += sorted((c.slope(m), m) for m in c.stable if keep(c.slope(m)))
        if {m for _, m in expected} != target:
            return False
        generic = all(c.generic(keep) for c, keep in halves)
        if isinstance(seq, gs.NonGeneric):
            return not generic
        got = [(s, (m.i, m.j)) for m, s in seq]
        return generic and len(got) == q.max_length() and got == expected


class Sweep(Workload):
    """One affine sign word: maximal sets, linearity, collapses, Hom."""

    name = "sweep"
    tail_window = 90  # two cycles of the plus count at n = 10 (9 values)

    def make_input(self, rng, k):
        word = _word(rng, 6 + k % 5, k // 5)
        k_, l_ = rng.choice(ref.valid_pairs(ref.RefQuiver("At:" + word)))
        return (word, k_, l_)

    def op(self, inp):
        word, k, l = inp
        q = gs.parse_quiver("At:" + word)
        n = q.n
        rows = gs.enumerate_max_sets(q)
        verdicts = gs.linear_pairs(q)
        S = next(d for d, _ in rows if (d.k, d.l) == (k, l))
        projections = {}
        for x in range(1, n + 1):
            if x in ((k - 1) % n + 1, (l - 1) % n + 1):
                continue
            try:
                p = gs.collapse(q, [x])
            except gs.InvalidQuiver:
                projections[x] = None
                continue
            projections[x] = (p.target.label(), gs.project_set(p, S.modules))
        members = sorted(S.modules, key=lambda m: (m.i, m.j))
        hom = [[gs.hom_dim(q, m1, m2) for m2 in members] for m1 in members]
        return rows, verdicts, S, projections, members, hom

    def check(self, inp, out) -> bool:
        word, k, l = inp
        rows, verdicts, S, projections, members, hom = out
        q = ref.RefQuiver("At:" + word)
        a, b, n = q.a, q.b, q.n
        pairs = ref.valid_pairs(q)
        if sorted((d.k, d.l) for d, _ in rows) != sorted(pairs):
            return False
        if sorted((k_, l_) for k_, l_, _ in verdicts) != sorted(pairs):
            return False
        if any(len(d.modules) != q.max_length() for d, _ in rows):
            return False
        classes = len({cid for _, cid in rows})
        if (a, b) != (2, 2) and classes != a * b:
            return False
        if {(m.i, m.j) for m in S.modules} != ref.skl(q, k, l):
            return False
        for k_, l_, v in verdicts:
            if v.linear != (v.pattern_witness is None) or v.linear == (v.satisfied_condition is None):
                return False
            if v.linear != ref.is_linear(q, k_, l_):
                return False
        for x in range(1, n + 1):
            if x in ((k - 1) % n + 1, (l - 1) % n + 1):
                continue
            spec, table = ref.collapse_target(word, x)
            got = projections.get(x, "missing")
            if spec is None or got is None:
                if spec is not None or got is not None:
                    return False
                continue
            label, image = got
            if label != spec:
                return False
            t = ref.RefQuiver(spec)
            pk, pl = (ref.pi(table, n, t.n, v) for v in (k, l))
            expected = ref.skl(t, pk, pl) if t.kind == "At" else ref.sk(t, pk)
            if {(m.i, m.j) for m in image} != expected:
                return False
        return len(hom) == len(members) and all(hom[x][x] == 1 for x in range(len(members)))


WORKLOADS = {w.name: w for w in (Fuzz, Query, Witness, Sweep)}
