"""In-memory span tracer that wraps library functions from outside.

``Tracer.install`` replaces each traced function in every ``greenseq``
module namespace that binds it (so calls between library modules are
seen too) and ``uninstall`` puts the originals back.  A span is
(name, start, end, parent, op id); spans live in flat arrays while the
run lasts and are written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter_ns

import greenseq

#: Functions wrapped in a traced run, as ``<module>.<name>``.
TRACED = (
    "stability.stable_set",
    "stability.mgs",
    "stability.candidate_pairs",
    "stability.spliced_stable_set",
    "stability.spliced_mgs",
    "stability.random_charge",
    "stability.equivalence_mismatches",
    "charges.IntContext",
    "charges.slope",
    "charges.is_finite",
    "charges.make_charge",
    "linearity.witness_spliced",
    "linearity.witness_linear",
    "linearity.reineke_charge",
    "linearity.dn_charge",
    "linearity.is_linear_set",
    "maxsets.build_Skl",
    "maxsets.build_Sk",
    "maxsets.enumerate_max_sets",
    "quivers.hom_dim",
    "quivers.string_module",
    "quivers.parse_quiver",
    "collapse.collapse",
    "collapse.project_set",
    "collapse.project_charge",
    "render.render_chord_svg",
    "render.render_wire_svg",
    "cli.main",
    "rng.substream",
)

#: Spans of these functions remember the quiver of their charge argument,
#: so that their time can be given per candidate module.
PER_CANDIDATE = ("stability.stable_set", "stability.equivalence_mismatches")


class Tracer:
    def __init__(self, names=TRACED):
        self.names = list(names)
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.errors: dict[int, str] = {}
        self.quivers: dict[int, object] = {}
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _wrap(self, idx: int, fn, keep_quiver: bool):
        name_id, start, end, parent, op = self.name_id, self.start, self.end, self.parent, self.op
        errors, quivers, stack = self.errors, self.quivers, self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = len(name_id)
            name_id.append(idx)
            start.append(0)
            end.append(0)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            if keep_quiver:
                quivers[span] = args[0].quiver
            stack.append(span)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                errors[span] = type(err).__name__
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[span] = t0
                end[span] = t1

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "greenseq" or key.startswith("greenseq.")]
        for idx, full in enumerate(self.names):
            mod_name, attr = full.split(".")
            original = getattr(sys.modules[f"greenseq.{mod_name}"], attr)
            wrapper = self._wrap(idx, original, full in PER_CANDIDATE)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def self_times(self) -> list[int]:
        """Duration of each span minus the time its direct children cover."""
        return self_times(self.start, self.end, self.parent)

    def dump(self, path) -> None:
        """Write every span as gzip-compressed JSON columns."""
        data = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [list(self.name_id), list(self.start), list(self.end), list(self.parent), list(self.op)],
            "errors": {str(k): v for k, v in self.errors.items()},
            "greenseq": greenseq.__version__,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


def self_times(start, end, parent) -> list[int]:
    """Self time per span.  Spans of one thread nest, so the children of
    a span never overlap and the time they cover is the sum of theirs."""
    own = [e - s for s, e in zip(start, end)]
    child = [0] * len(own)
    for span, p in enumerate(parent):
        if p >= 0:
            child[p] += own[span]
    return [o - c for o, c in zip(own, child)]
