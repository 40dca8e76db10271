"""The public surface: every name a module exports exists, every public
top-level name is exported, and the package namespace holds no public
name but its modules, so each name has one import path; importing the
CLI, which loads every module a run does, loads no scipy, no
multiprocessing and no unicodedata, and scipy is a test dependency only;
the benchmark's traced run finds every function it wraps or replays,
and its observer reads every cell of a run without error;
only the entry point sets the OpenBLAS thread default and freezes the
import-time heap."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cauchybench

MODULES = [
    importlib.import_module(f"cauchybench.{info.name}")
    for info in pkgutil.iter_modules(cauchybench.__path__)
    if not info.name.startswith("_")
]


def test_every_all_name_resolves():
    for mod in MODULES:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_every_public_top_level_name_is_exported():
    # A name without a leading underscore is either in __all__ or renamed
    # private, so the documented surface is the whole public one.
    for mod in MODULES:
        names = []
        for node in ast.parse(Path(mod.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, ast.Assign):
                names += [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.append(node.target.id)
        missing = [name for name in names if not name.startswith("_") and name not in mod.__all__]
        assert not missing, (mod.__name__, missing)


def test_package_namespace_holds_only_modules():
    public = {
        name
        for name, value in vars(cauchybench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set()


def test_import_loads_no_scipy():
    # scipy is a test and benchmark dependency only: importing scipy.special
    # once doubled the package's import time and peak memory. The CLI loads
    # every module that `cauchybench run` loads.
    code = "import sys, cauchybench.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = str(Path(cauchybench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert not [dep for dep in project["dependencies"] if dep.startswith("scipy")]
    assert [dep for dep in project["optional-dependencies"]["test"] if dep.startswith("scipy")]


def test_import_loads_no_process_pool():
    # run_experiment forks its workers with os.fork, so neither importing the
    # package nor a run pays for multiprocessing.
    code = "import sys, cauchybench.cli; print('multiprocessing' in sys.modules)"
    src = str(Path(cauchybench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_loads_no_unicodedata(tmp_path):
    # Compiling a \N{...} escape imports unicodedata, so a module that spells
    # a character that way costs every process without a bytecode cache. An
    # empty cache prefix, never written, makes the child compile every module.
    code = "import sys, cauchybench.cli; print('unicodedata' in sys.modules)"
    src = str(Path(cauchybench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONPYCACHEPREFIX": str(tmp_path)}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("workload", ["hc2-cauchy", "hc8-gaussian-pair"])
def test_benchmark_trace_hooks_resolve(workload):
    # benchmarks/traced.py wraps and replays package functions by name, so
    # deleting one of them breaks `benchmarks/run.py --trace 1`.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import traced, workloads\n"
        f"cfg = workloads.config({workload!r}, 11)\n"
        "traced.install(traced.Tracer(cfg))\n"
        "traced.replay(cfg, repeats=1, calls=1)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "benchmarks")])}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]


def test_benchmark_observer_reads_every_cell():
    # Only a `--trace 1` benchmark run reads the CellInfo fields that the
    # benchmark's observer uses; this runs that observer on a 1-epoch
    # hc2-cauchy experiment, called as a library.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, traced, workloads\n"
        "from cauchybench import harness\n"
        "cfg = workloads.config('hc2-cauchy', 11)\n"
        "cfg['train'] = {**cfg['train'], 'epochs': 1}\n"
        "tracer = traced.Tracer(cfg)\n"
        "traced.install(tracer)\n"
        "harness.run_experiment(harness.config_from_dict(cfg))\n"
        "print(json.dumps({'errors': tracer.errors, 'folds': len(tracer.folds), 'cells': len(tracer.cells),\n"
        "                  'shape': [cfg['replicates'], cfg['folds'], len(cfg['models'])]}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "benchmarks")])}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    seen = json.loads(out.stdout)
    replicates, folds, models = seen["shape"]
    assert seen["errors"] == []
    assert seen["folds"] == replicates * folds
    assert seen["cells"] == replicates * folds * models


@pytest.mark.parametrize(
    "module, given, expected",
    [
        ("cauchybench.__main__", None, "1"),
        ("cauchybench.__main__", "2", "2"),
        ("cauchybench.harness", None, None),
    ],
)
def test_openblas_threads_default_only_at_the_entry_point(module, given, expected):
    # The entry point asks for one OpenBLAS thread before numpy loads, and
    # keeps a caller's choice; importing a library module sets nothing.
    code = f"import os, {module}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    src = str(Path(cauchybench.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(expected)


@pytest.mark.parametrize(
    "module, frozen",
    [("cauchybench.__main__", True), ("cauchybench.cli", False), ("cauchybench.harness", False)],
)
def test_gc_freeze_only_at_the_entry_point(module, frozen):
    # The entry point moves what importing numpy and the package leaves to
    # the permanent generation; importing a library module leaves the
    # caller's garbage collector alone.
    code = f"import gc, {module}; print(gc.get_freeze_count())"
    src = str(Path(cauchybench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert (int(out.stdout) > 0) == frozen


@pytest.mark.parametrize("module", ["cauchybench.__main__", "cauchybench.cli"])
def test_import_leaves_sigterm_alone(module):
    # Only calling the entry point's main() sets a SIGTERM handler.
    code = f"import signal, {module}; print(signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)"
    src = str(Path(cauchybench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"
