"""The names the benchmark harness binds in vspart still exist.

`perfbench/tracing.py` wraps every function it lists in FUNCTIONS and the
ExtField methods in EXT_METHODS; `perfbench/worker.py` counts field builds
through `gf.make_field.cache_info()`.  The lists are read from the tracer's
source with `ast`, so this test neither imports nor edits the harness.
"""

import ast
import importlib
from pathlib import Path

import pytest

from vspart import codes, gf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_constant(name):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACING.name}")


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in _tracer_constant("FUNCTIONS").items() for name in names],
)
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"vspart.{layer}")
    assert callable(getattr(module, name))


def test_traced_ext_field_methods_exist():
    methods = _tracer_constant("EXT_METHODS")
    assert set(methods) == {"mul", "scale"}
    for meth in methods:
        assert callable(getattr(gf.ExtField, meth))


def test_hooked_names_exist():
    assert isinstance(codes.PAIRWISE_SCAN_LIMIT, int)
    info = gf.make_field.cache_info()
    assert info.misses >= 0


def test_make_field_never_calls_itself(monkeypatch):
    # The tracer renames a span answered by the cache and the worker counts
    # cache misses, so a nested make_field call would skew both.
    calls = []
    original = gf.make_field

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gf, "make_field", counting)
    for p, e in [(2, 8), (3, 5), (7, 3), (2, 9)]:
        original.__wrapped__(p, e)  # the uncached body
    assert calls == []
