"""The package's import graph: `import billiards` loads no submodule, each
command loads only the modules it runs, and numpy is the only third-party
module the package imports.  Module loads are read from `sys.modules` in a
fresh interpreter."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import billiards

SRC = str(Path(billiards.__file__).resolve().parent.parent)
# what every command loads with billiards.cli
CLI = {"cli", "errors", "profiles", "supportfn"}
# a None entry makes any import of scipy raise ImportError
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def _loaded(code: str) -> set[str]:
    """The billiards submodules loaded once code has run in a fresh
    interpreter; code's own output comes before the last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sorted("
         "n.split('.', 1)[1] for n in sys.modules "
         "if n.startswith('billiards.')))"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    assert _loaded("import billiards") == set()


def test_cli_import_loads_neither_beam_nor_wirtinger():
    assert _loaded("import billiards.cli") == CLI


@pytest.mark.parametrize("argv, runs", [
    (["table", "validate", "{spec}"], set()),
    (["orbit", "{spec}", "--psi0", "0.3", "--delta0", "0.7", "--steps", "5"],
     {"billmap"}),
    (["verify", "{spec}", "--grid", "64"],
     {"billmap", "fourperiodic", "sampling"}),
    (["integral", "{spec}", "--n", "256"],
     {"billmap", "fourperiodic", "wirtinger"}),
    (["beam-scan", "{spec}", "--starts", "4", "--max-steps", "3"],
     {"billmap", "fourperiodic", "sampling", "beam"}),
])
def test_command_loads_only_what_it_runs(tmp_path, argv, runs):
    spec = tmp_path / "mode6.json"
    spec.write_text(json.dumps({"type": "profile", "R": 1.0,
                                "d_modes": [[2, 0.1, 0], [6, 0.02, 0]]}))
    argv = [str(spec) if a == "{spec}" else a for a in argv]
    code = (NO_SCIPY + "from billiards.cli import main\n"
            f"assert main({argv!r}) == 0")
    assert _loaded(code) == CLI | runs


def test_arclength_callers_run_without_scipy():
    code = NO_SCIPY + """
from billiards.billmap import BoundaryCoord, chart_change_determinant
from billiards.supportfn import arclength_of_psi, ellipse_support, perimeter
spec = ellipse_support(2.0, 1.0)
assert 0.0 < arclength_of_psi(spec, 1.0) < perimeter(spec)
assert abs(chart_change_determinant(spec, BoundaryCoord(0.4, 0.9)) - 1) < 1e-6
"""
    assert _loaded(code) == {"billmap", "errors", "profiles", "supportfn"}


def test_package_imports_no_third_party_module_but_numpy():
    # every import statement, function-local ones included
    modules = set()
    for path in Path(SRC, "billiards").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module)
    top = {name.split(".")[0] for name in modules}
    assert top - set(sys.stdlib_module_names) == {"numpy"}


def test_public_names_are_their_modules_objects():
    assert len(billiards.__all__) == len(set(billiards.__all__)) == 64
    assert set(billiards.__all__) <= set(dir(billiards))
    for name in billiards.__all__:
        home = importlib.import_module(f"billiards.{billiards._HOME[name]}")
        obj = getattr(billiards, name)
        assert obj is vars(home)[name], name
        if isinstance(obj, (type, types.FunctionType)):
            # defined there, not imported from elsewhere
            assert obj.__module__ == home.__name__, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'forward'"):
        billiards.forward
    from billiards import billmap  # a submodule, not a public name
    assert billmap is sys.modules["billiards.billmap"]
