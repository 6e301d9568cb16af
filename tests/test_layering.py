"""The one layering rule: runs read no models.

``core`` / ``svm`` / ``exec`` / ``parallel`` / ``data`` / ``analysis`` /
``rtfmri`` / ``eval`` *execute* FCMA on the machine at hand; ``hw`` /
``perf`` / ``cluster`` / ``bench`` *model* a machine nobody has.  The
models read what a run wrote (``repro.obs.perf`` and the CLI's report
commands are the bridges); no run-path package imports a model at
runtime.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
RUN_PATH = ("core", "svm", "exec", "parallel", "data", "analysis", "rtfmri", "eval")
MODELS = ("hw", "perf", "cluster", "bench")


def _type_checking_nodes(tree: ast.AST) -> set[int]:
    """ids of every node under an ``if TYPE_CHECKING:`` block."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            test = node.test
            name = getattr(test, "id", None) or getattr(test, "attr", None)
            if name == "TYPE_CHECKING":
                for stmt in node.body:
                    guarded.update(id(sub) for sub in ast.walk(stmt))
    return guarded


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """``(line, absolute module)`` of every runtime import in ``path``."""
    tree = ast.parse(path.read_text())
    guarded = _type_checking_nodes(tree)
    package = ("repro", *path.relative_to(PACKAGE_ROOT).parts[:-1])
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            # ``from .. import hw`` names the package in the alias.
            found += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
    return found


def test_run_path_packages_import_no_model():
    offenders = []
    for package in RUN_PATH:
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
            for line, module in _imported_modules(path):
                parts = module.split(".")
                if parts[0] == "repro" and len(parts) > 1 and parts[1] in MODELS:
                    offenders.append(
                        f"{path.relative_to(PACKAGE_ROOT)}:{line} imports {module}"
                    )
    assert not offenders, "\n".join(offenders)


def test_importing_the_run_path_loads_no_model_module():
    """What every ``fcma run`` and every TCP worker process imports."""
    code = (
        "import sys, repro, repro.cli, repro.parallel.tcp_worker\n"
        "print([m for m in sys.modules if m.startswith("
        f"{tuple('repro.' + m for m in MODELS)!r})])"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
