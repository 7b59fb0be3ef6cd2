"""What each entry point imports, in a fresh interpreter, and what each module imports.

A command's start-up is mostly imports, so the evaluation path must not
load the oracle, nor the standard-library modules the package does not
use.  The children run with -S, so no site hook preloads anything.  Every
module but the package's ``__init__`` reads each name it imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# modules the evaluation path does without
UNUSED = {"dataclasses", "inspect", "typing", "m0nbar.oracle"}


def run_child(code):
    """Run code in a fresh ``python -S`` that imports m0nbar from src; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by_command(argv):
    """The modules loaded once ``python -S -m m0nbar *argv`` has run, and
    the command's stdout; runpy runs the package as -m does."""
    out = run_child("\n".join([
        "import runpy, sys",
        f"sys.argv = ['m0nbar', *{argv!r}]",
        "try:",
        "    runpy.run_module('m0nbar', run_name='__main__', alter_sys=True)",
        "except SystemExit as stop:",
        "    assert stop.code == 0, stop.code",
        "print(*sys.modules)",
    ]))
    text, _, modules = out.rstrip("\n").rpartition("\n")
    return set(modules.split()), text


def test_importing_the_cli_loads_nothing_unused():
    modules = set(run_child("import sys, m0nbar.cli\nprint(*sys.modules)").split())
    assert "m0nbar.cli" in modules
    assert not modules & UNUSED


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "4", "psi1"],
        ["explain", "--coloring", "--n", "5", "D{1,2}^2"],
        ["enumerate", "--n", "5", "--count-only"],
    ],
)
def test_commands_without_the_oracle_load_nothing_unused(argv):
    modules, out = loaded_by_command(argv)
    assert "m0nbar.cli" in modules and out
    assert not modules & UNUSED


def test_check_loads_the_oracle():
    modules, out = loaded_by_command(["check", "--suite", "flag", "--n-max", "4"])
    assert "m0nbar.oracle" in modules
    assert "all checks passed" in out


def test_first_access_of_an_oracle_name_loads_it():
    out = run_child("\n".join([
        "import sys, m0nbar",
        "print('m0nbar.oracle' in sys.modules)",
        "certify = m0nbar.flag_certify",
        "print('m0nbar.oracle' in sys.modules)",
        "print(certify is sys.modules['m0nbar.oracle'].flag_certify)",
    ]))
    assert out.split() == ["False", "True", "True"]


def test_every_public_name_resolves():
    out = run_child("\n".join([
        "import m0nbar",
        "missing = [n for n in m0nbar.__all__ if getattr(m0nbar, n, None) is None]",
        "hidden = set(m0nbar.__all__) - set(dir(m0nbar))",
        "namespace = {}",
        "exec('from m0nbar import *', namespace)",
        "print(missing, sorted(hidden), sorted(set(m0nbar.__all__) - set(namespace)))",
    ]))
    assert out.strip() == "[] [] []"


def test_an_unknown_name_raises_attribute_error():
    import m0nbar

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        m0nbar.no_such_name  # noqa: B018
    assert "oracle" in dir(m0nbar)


def test_importing_the_main_module_runs_nothing():
    # tools that import every module (pydoc, coverage) must not start the CLI;
    # python -m m0nbar runs it as __main__, which the commands above cover
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import m0nbar.__main__"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def _names_read(tree):
    # every name the module reads, quoted annotations included
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read |= _names_read(ast.parse(note.value, mode="eval"))
    return read


@pytest.mark.parametrize(
    "path", sorted(p for p in (SRC / "m0nbar").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_top_level_import_is_read(path):
    # __init__.py is left out: it imports names to re-export them
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    unused = sorted(bound - _names_read(tree))
    assert not unused, f"{path.name} imports names it never reads: {unused}"
