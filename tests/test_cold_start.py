"""Cold-start guards: a fresh process imports only what its command runs.

Each check runs in its own interpreter, since any earlier import in the
test process would hide what a cold ``repro`` invocation loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Runs ``python -m repro ARGS`` in-process, then prints the loaded
#: module names as the last stdout line.
_CLI_PROBE = """
import contextlib, io, json, runpy, sys
sys.argv = ["repro"] + json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli_modules(*argv):
    out = _run(_CLI_PROBE, json.dumps(list(argv)))
    return set(json.loads(out.strip().splitlines()[-1]))


def test_help_loads_no_numpy():
    modules = _cli_modules("--help")
    assert "numpy" not in modules
    assert not {m for m in modules if m.startswith("repro.reliability")}


def test_argparse_error_loads_no_numpy():
    modules = _cli_modules("analyze")  # missing circuit: argparse exits
    assert "numpy" not in modules


def test_analyze_skips_unrelated_subsystems():
    modules = _cli_modules("analyze", "c17", "--json")
    assert "repro.reliability.single_pass" in modules  # it did run
    forbidden = ("asyncio", "repro.engine.serve", "repro.engine.session",
                 "repro.sat", "repro.incremental", "repro.apps",
                 "repro.io.blif", "repro.io.bench", "repro.reliability.exact",
                 "repro.reliability.ptm", "repro.reliability.consolidated")
    loaded = sorted(m for m in modules
                    if any(m == f or m.startswith(f + ".") for f in forbidden))
    assert not loaded


_PACKAGES = ["repro", "repro.apps", "repro.bdd", "repro.circuit",
             "repro.circuits", "repro.engine", "repro.incremental",
             "repro.io", "repro.obs", "repro.probability",
             "repro.reliability", "repro.scale", "repro.sat", "repro.sim",
             "repro.testing"]


#: Submodules a bare package import may load: ``repro.circuit`` binds
#: ``unroll`` eagerly, because its submodule of the same name would
#: otherwise shadow it (see repro._lazy).
_EAGER = {"repro.circuit": ["repro.circuit.circuit", "repro.circuit.gate",
                            "repro.circuit.sequential", "repro.circuit.unroll"]}


@pytest.mark.parametrize("package", _PACKAGES)
def test_package_surface_resolves_lazily(package):
    code = f"""
import importlib, sys, types
pkg = importlib.import_module({package!r})
early = sorted(m for m in sys.modules if m.startswith("repro.")
               and m not in ("repro._lazy", {package!r}))
assert early == {_EAGER.get(package, [])!r}, early
for name in pkg.__all__:
    value = getattr(pkg, name)
    if isinstance(value, types.ModuleType):
        assert value.__name__ == {package!r} + "." + name, name
    assert name in dir(pkg), name
"""
    _run(code)


def test_star_import_and_shadowed_export():
    code = """
import types
ns = {}
exec("from repro import *", ns)
import repro
assert set(repro.__all__) <= set(ns), set(repro.__all__) - set(ns)
assert ns["__version__"] == repro.__version__
import repro.circuit.unroll
from repro.circuit import unroll
assert not isinstance(unroll, types.ModuleType)
try:
    repro.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""
    _run(code)
