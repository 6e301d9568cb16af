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
import re
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
RUN_PATH = ("core", "svm", "exec", "parallel", "data", "analysis", "rtfmri", "eval")
MODELS = ("hw", "perf", "cluster", "bench")
#: Model modules whose readers are tests by design: the trace-driven
#: cache simulator is the oracle ``tests/perf/test_matmul_model.py``
#: holds the closed-form miss arithmetic against.
TEST_ORACLES = {"repro.hw.cache"}


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
    # Files outside the package (benchmarks, examples) import absolutely.
    inside = PACKAGE_ROOT in path.parents
    package = ("repro", *path.relative_to(PACKAGE_ROOT).parts[:-1]) if inside else ()
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
    """What every ``fcma run``, every TCP worker process and the
    scenario harness (``repro.eval``) import."""
    code = (
        "import sys, repro, repro.cli, repro.parallel.tcp_worker, repro.eval\n"
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


def test_every_model_module_has_a_reader():
    """Each module under ``hw`` / ``perf`` / ``cluster`` / ``bench`` is
    imported — directly or by a name its package re-exports — by a module
    under ``src/`` other than its own package ``__init__``, or by
    ``benchmarks/`` or ``examples/``.  One that only its ``__init__`` and
    tests read feeds no table, trace enrichment or CLI report."""
    repo = PACKAGE_ROOT.parents[1]
    # "repro.perf.density_sweep" -> "repro.perf.sparse_model.density_sweep"
    defined_in = {
        f"repro.{package}.{module.rsplit('.', 1)[1]}": module
        for package in MODELS
        for _, module in _imported_modules(PACKAGE_ROOT / package / "__init__.py")
        if module.startswith(f"repro.{package}.")
    }
    read: set[str] = set()
    for root in (PACKAGE_ROOT, repo / "benchmarks", repo / "examples"):
        for path in root.rglob("*.py"):
            own = (
                f"repro.{path.parent.name}."
                if path.name == "__init__.py" and path.parent.parent == PACKAGE_ROOT
                else None
            )
            read.update(
                defined_in.get(module, module)
                for _, module in _imported_modules(path)
                if own is None or not module.startswith(own)
            )
    orphans = [
        f"repro.{package}.{path.stem}"
        for package in MODELS
        for path in sorted((PACKAGE_ROOT / package).glob("*.py"))
        if path.name != "__init__.py"
        and f"repro.{package}.{path.stem}" not in TEST_ORACLES
        and not any(
            m.startswith(f"repro.{package}.{path.stem}.")
            or m == f"repro.{package}.{path.stem}"
            for m in read
        )
    ]
    assert not orphans, f"model modules nothing reads: {orphans}"


def _enclosing_functions_calling(name: str, packages: tuple[str, ...]) -> set[str]:
    """``file::function`` of every call of ``name`` under ``packages``
    (``<module>`` for a call outside any function)."""
    sites: set[str] = set()
    for package in packages:
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
            tree = ast.parse(path.read_text())
            owner: dict[int, str] = {}
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for sub in ast.walk(fn):
                        # Innermost wins: ast.walk visits outer defs first.
                        owner[id(sub)] = fn.name
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", None) or getattr(
                        node.func, "attr", None
                    )
                    if callee == name:
                        sites.add(
                            f"{path.relative_to(PACKAGE_ROOT)}::"
                            f"{owner.get(id(node), '<module>')}"
                        )
    return sites


def test_one_walk_body_and_one_stage3_body():
    """A task is walk ∘ score, and each half has one body: outside
    ``core`` only ``exec.stage_graph.walk`` drives the engine (the graph
    node, a tiled worker's ``"tile"`` item and ``tile_partial_grams`` all
    call it), and one batch/fallback loop (``score_kernels``) feeds the
    batched cross-validation."""
    assert _enclosing_functions_calling("run_engine", ("exec", "parallel")) == {
        "exec/stage_graph.py::walk"
    }
    assert _enclosing_functions_calling(
        "grouped_cross_validation_batch", ("core", "exec", "parallel")
    ) == {"core/voxel_selection.py::score_kernels"}


def test_one_fleet():
    """Thread ranks and TCP ranks are one fleet: every worker rank on
    either transport enters through ``run_worker`` (the one caller of
    ``worker_loop``), a rank's report is received by one loop
    (``master_loop``; no second ``collect_worker_reports``), per-rank
    progress is the master's own count (no ``TAG_TELEMETRY`` side
    channel) and worker telemetry reaches a context one way
    (``merge_export``; ``RunContext.merge`` has no caller)."""
    assert _enclosing_functions_calling("worker_loop", (".",)) == {
        "parallel/tcp_worker.py::run_worker"
    }
    sources = {
        path: path.read_text() for path in sorted(PACKAGE_ROOT.rglob("*.py"))
    }
    for retired in ("TAG_TELEMETRY", "send_telemetry", "collect_worker_reports"):
        mentions = [str(p) for p, text in sources.items() if retired in text]
        assert not mentions, f"{retired} still appears in {mentions}"
    context_merges = [
        f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}"
        for path, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "merge"
        # ``<...>.tracer.merge(...)`` is Tracer.merge, the substrate.
        and getattr(node.func.value, "attr", getattr(node.func.value, "id", None))
        != "tracer"
    ]
    assert not context_merges, f"RunContext.merge callers: {context_merges}"


def test_one_event_source():
    """The live plane is a fold over the run's trace: nothing under
    ``src/`` outside ``obs/live`` and the CLI imports it, the
    process-global hook and the socket probe are gone, and the only
    write to a runtime from outside the package is the CLI's one
    static gauge (``fcma rtfmri --latency-budget-ms``)."""
    live = PACKAGE_ROOT / "obs" / "live"
    outside = [
        path
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if live not in path.parents and path != PACKAGE_ROOT / "cli.py"
    ]
    importers = {
        f"{path.relative_to(PACKAGE_ROOT)}:{line}"
        for path in outside
        for line, module in _imported_modules(path)
        if module == "repro.obs.live" or module.startswith("repro.obs.live.")
    }
    assert not importers, f"live plane imported by {importers}"
    sources = {path: path.read_text() for path in sorted(PACKAGE_ROOT.rglob("*.py"))}
    for retired in (
        "current_live", "activate", "deactivate", "activated",
        "set_heartbeat_probe", "heartbeat_ages",
    ):
        mentions = [
            str(p.relative_to(PACKAGE_ROOT))
            for p, text in sources.items()
            if re.search(rf"\b{retired}\b", text)
        ]
        assert not mentions, f"{retired} still appears in {mentions}"
    writes = [
        (str(path.relative_to(PACKAGE_ROOT)), node.func.attr)
        for path in [*outside, PACKAGE_ROOT / "cli.py"]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None)
        in ("inc", "set_gauge", "set_total", "observe", "heartbeat", "worker_lost")
    ]
    assert writes == [("cli.py", "set_gauge")], writes


def _iterated_attributes(node: ast.AST) -> list[ast.AST]:
    """Expressions ``node`` iterates: loop and comprehension sources, and
    what it hands to ``enumerate`` / ``deque`` / ``iter``."""
    found: list[ast.AST] = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.For, ast.AsyncFor, ast.comprehension)):
            found.append(sub.iter)
        elif isinstance(sub, ast.Call) and getattr(
            sub.func, "id", getattr(sub.func, "attr", None)
        ) in ("enumerate", "deque", "iter"):
            found += sub.args
    return found


def test_one_scaling_answer():
    """How the master-worker protocol scales has one answer: the
    cluster simulator on one link type.  The analytic envelope
    (``perf/scaleout_model.py``) and its second link type are gone, a
    simulated schedule has one view (the span tree, not
    ``cluster/trace.py``'s Gantt), exactly one dataclass describes a
    link (a latency in seconds beside a bandwidth in bytes/s), and
    ``simulate_records`` is the one function that walks a fold's tasks
    (``FoldSpec``'s own methods aside)."""
    for retired in ("perf/scaleout_model.py", "cluster/trace.py"):
        assert not (PACKAGE_ROOT / retired).exists(), retired
    sources = {path: path.read_text() for path in sorted(PACKAGE_ROOT.rglob("*.py"))}
    retired_names = ("InterconnectSpec", "predict_scaleout", "ScaleoutPoint", "render_gantt")
    for name in retired_names:
        mentions = [
            str(p.relative_to(PACKAGE_ROOT))
            for p, text in sources.items()
            if re.search(rf"\b{name}\b", text)
        ]
        assert not mentions, f"{name} still appears in {mentions}"

    links = []
    walkers = set()
    for path, text in sources.items():
        tree = ast.parse(text)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = {
                getattr(d, "id", None) or getattr(getattr(d, "func", None), "id", None)
                for d in cls.decorator_list
            }
            fields = [
                stmt.target.id
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
            # A link: a latency in seconds and a bandwidth in bytes/s
            # (a machine's memory latency / bandwidth are not links).
            if (
                "dataclass" in decorators
                and any(f.endswith("latency_s") for f in fields)
                and any(f.startswith("bandwidth_bytes") for f in fields)
            ):
                links.append(f"{path.relative_to(PACKAGE_ROOT)}::{cls.name}")
        own = {
            id(fn)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "FoldSpec"
            for fn in cls.body
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(fn) in own:
                continue
            if any(
                isinstance(sub, ast.Attribute) and sub.attr == "tasks"
                for source in _iterated_attributes(fn)
                for sub in ast.walk(source)
            ):
                walkers.add(f"{path.relative_to(PACKAGE_ROOT)}::{fn.name}")
    assert links == ["cluster/network.py::NetworkModel"], links
    assert walkers == {"cluster/simulator.py::simulate_records"}, walkers
    test_every_model_module_has_a_reader()
