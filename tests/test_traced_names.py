"""The benchmark's traced run wraps library functions by name.

``perfbench/tracer.py`` lists them in ``TRACED`` as ``<module>.<name>``
and looks each one up at module level of ``greenseq.<module>``; a
renamed or removed function would only fail there, in
``perfbench/run.py --trace 1``.  This test reads the list from the file
as it stands and checks every name against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names() -> list[str]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TRACED tuple in {TRACER}")


@pytest.mark.parametrize("full", traced_names())
def test_traced_name_is_a_module_level_callable(full):
    mod_name, attr = full.split(".")
    module = importlib.import_module(f"greenseq.{mod_name}")
    assert callable(vars(module).get(attr)), f"greenseq.{full} is not a module-level callable"
