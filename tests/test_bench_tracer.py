"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py wraps library functions and methods by name, so a
renamed or deleted name fails the benchmark, not the library's tests.  This
installs the tracer on a fresh import of treeshift, built as perfbench/run.py
builds it, and checks that uninstalling puts every binding back.  The files
under perfbench/ are loaded, never changed.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings(ts) -> dict:
    """Every attribute of the modules, and of each class a module defines."""
    out = {}
    for mod in ts.modules:
        for key, value in vars(mod).items():
            out[mod.__name__, key] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out.update({(mod.__name__, key, a): v for a, v in vars(value).items()})
    return out


def _is_treeshift(name: str) -> bool:
    return name == "treeshift" or name.startswith("treeshift.")


def test_install_then_uninstall_restores_every_binding(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ on it
    saved = {name: mod for name, mod in sys.modules.items() if _is_treeshift(name)}
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        ts = run.fresh_import()
        before = _bindings(ts)
        tracer = run.install(ts)
        traced = _bindings(ts)
        tracer.uninstall()
        after = _bindings(ts)
    finally:
        # the rest of the suite keeps the modules it imported
        for name in [name for name in sys.modules if _is_treeshift(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)

    assert before.keys() == traced.keys() == after.keys()
    wrapped = {key for key, value in before.items() if traced[key] is not value}
    assert ("treeshift.chains", "enumerate_cylinders") in wrapped
    assert ("treeshift.cocycles", "scan_positive_windows") in wrapped
    assert [key for key, value in before.items() if after[key] is not value] == []
