"""Every module under src/btdm and tests uses each name it imports, every
module-private top-level name in src/btdm is read in its own module, and a
trial runs on numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "btdm").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports and never read in it.

    A name counts as read when it appears as an identifier anywhere
    (annotations included) or as a string in the module's ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read]


def test_detects_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "__all__ = ['b']\nx: np.ndarray = os.sep\n")
    assert unused_imports(source) == ["line 4: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(source: str) -> list[str]:
    """Top-level functions, classes and constants named ``_x`` that the
    module never reads. Dunder names such as ``__all__`` are not private."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(defined.items(), key=lambda i: i[1])
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_detects_unread_private_name():
    source = ("__all__ = []\n_USED, _SPARE = 1, 2\n_LIMIT: int = 3\n"
              "def _helper():\n    return _helper\n"
              "def _orphan():\n    _local = _USED\n    return _local\n"
              "class _Unused:\n    pass\ndef public():\n    return _LIMIT\n")
    assert unread_private_names(source) == ["line 2: _SPARE", "line 6: _orphan",
                                            "line 9: _Unused"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_private_names_are_read(path):
    assert unread_private_names(path.read_text()) == []


def test_a_trial_imports_no_scipy():
    # numpy is the package's only dependency: one noisy desk trial (build,
    # transmit, demodulate) must not pull scipy in.
    code = ("import sys\n"
            "from btdm import harness\n"
            "cfg = harness.ExperimentConfig(restarts=2)\n"
            "components = harness.build_components(cfg)\n"
            "pupe, _, _ = harness.run_trial(cfg, *components, ebn0_db=12.0, K=4, cell=0, trial=0)\n"
            "print(pupe, *sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0.0"]
