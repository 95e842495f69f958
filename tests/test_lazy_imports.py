"""On-demand imports: the package loads a submodule when a name is first used,
and each CLI command loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vspart

SRC = str(Path(vspart.__file__).parents[1])


def loaded_after(code: str, *argv: str) -> set:
    """The vspart modules loaded in a fresh interpreter after running code."""
    script = code + "\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.split('.')[0] == 'vspart']))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_library_module():
    assert loaded_after("import vspart.cli") == {"vspart", "vspart.cli", "vspart.errors"}


def test_bare_import_loads_no_submodule():
    assert loaded_after("import vspart") == {"vspart"}


def test_verify_loads_only_what_it_runs(tmp_path):
    f = tmp_path / "s.part"
    code = (
        "import contextlib, io, sys\n"
        "from vspart.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(sys.argv[1:]) == 0\n"
    )
    loaded_after(code, "construct", "spread", "--q", "2", "--n", "4", "--d", "2", "--out", str(f))
    loaded = loaded_after(code, "verify", str(f))
    assert {"vspart.io", "vspart.partition"} <= loaded
    for heavy in ("search", "construct", "codes", "designs", "dioph"):
        assert f"vspart.{heavy}" not in loaded


def test_every_public_name_is_its_submodule_object():
    for name, module in vspart._EXPORTS.items():
        assert getattr(vspart, name) is getattr(importlib.import_module(f"vspart.{module}"), name)
        assert vars(vspart)[name] is getattr(vspart, name)  # cached after first use
    assert sorted(vspart.__all__) == sorted(vspart._EXPORTS)
    assert set(vspart.__all__) <= set(dir(vspart))


def test_submodules_resolve_after_a_bare_import():
    code = "import vspart\nassert vspart.linalg.meet is vspart.meet\n"
    assert "vspart.linalg" in loaded_after(code)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        vspart.no_such_name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from vspart import *", namespace)
    assert set(vspart.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(vspart, name) for name in vspart.__all__)
