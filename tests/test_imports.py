"""The import surface: the package resolves its names on first use, and a
command loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypermat
from hypermat import cli, suites

SRC = Path(__file__).resolve().parents[1] / "src"

# what an even-rank det or inverse runs: the engine over the tensor layer,
# the document loader and the exact scalars
COMMAND_MODULES = ["hypermat", "hypermat.cli", "hypermat.documents",
                   "hypermat.engine", "hypermat.errors", "hypermat.rational",
                   "hypermat.tensor"]

EVEN_DOC = {"rank": 4, "dim": 2, "entries": [
    {"index": [0, 0, 0, 0], "value": "1"},
    {"index": [1, 1, 1, 1], "value": "1"},
    {"index": [0, 0, 1, 1], "value": "1"}]}


def loaded_after(code: str, *argv: str) -> list:
    """The hypermat modules in ``sys.modules`` after ``code`` runs in a
    fresh interpreter; ``code`` may print nothing."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'hypermat')))")
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_importing_the_package_loads_no_submodule():
    # dir() lists every exported name before any of them is resolved
    code = "import hypermat\nassert set(dir(hypermat)) >= set(hypermat.__all__)"
    assert loaded_after(code) == ["hypermat"]


@pytest.mark.parametrize("command", ["det", "inverse"])
def test_an_even_rank_command_loads_only_what_it_runs(tmp_path, command):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(EVEN_DOC))
    code = ("import contextlib, io, sys\n"
            "from hypermat import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0")
    assert loaded_after(code, command, str(path)) == COMMAND_MODULES


def test_every_exported_name_is_its_defining_modules_object():
    for name in hypermat.__all__:
        value = getattr(hypermat, name)
        if name in hypermat._EXPORTS:
            assert value is importlib.import_module(f"hypermat.{name}")
        else:
            module = importlib.import_module(f"hypermat.{hypermat._MODULE_OF[name]}")
            assert value is getattr(module, name)


def test_names_resolve_by_every_import_form():
    from hypermat import SymTensor, engine, lift, oddrank
    from hypermat.oddrank import lift as defined
    from hypermat.tensor import SymTensor as defined_class

    assert lift is defined and SymTensor is defined_class
    assert engine is sys.modules["hypermat.engine"]
    assert oddrank is sys.modules["hypermat.oddrank"]
    namespace = {}
    exec("from hypermat import *", namespace)
    assert set(hypermat.__all__) <= set(namespace)
    assert namespace["epsilon_inverse"] is engine.epsilon_inverse


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        hypermat.nope
    with pytest.raises(ImportError):
        exec("from hypermat import nope", {})


def test_the_suite_choices_are_the_suites():
    assert list(cli.SUITE_NAMES) == sorted(suites.SUITES)
