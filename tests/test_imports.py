"""The package's import graph: `import billiards` loads no submodule, and
each command loads only the modules it runs.  Module loads are read from
`sys.modules` in a fresh interpreter."""

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
    code = ("from billiards.cli import main\n"
            f"assert main({argv!r}) == 0")
    assert _loaded(code) == CLI | runs


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
