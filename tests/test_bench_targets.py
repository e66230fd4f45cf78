"""Every belyilab name the benchmark reaches still exists.

bench/tracer.py wraps the functions listed in its TARGETS (after `import
belyilab.cli`, from sys.modules), and the workloads import names from
belyilab and call module attributes.  A deletion in src that removes one
of them would break `bench/run.py --trace 1` or a workload; these tests
make it fail here first.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import belyilab

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


def _resolve(module, path):
    obj = importlib.import_module("belyilab." + module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("module, path", [(t[0], t[1]) for t in TARGETS])
def test_tracer_target_resolves(module, path):
    assert callable(_resolve(module, path))


def _workload_references():
    """(module, attribute path) for every `from belyilab.X import name`
    and every `X.name` on an imported belyilab module in bench/*.py."""
    refs = set()
    for source in sorted(BENCH.glob("*.py")):
        tree = ast.parse(source.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "belyilab":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("belyilab."):
                sub = node.module.split(".", 1)[1]
                refs.update((sub, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                refs.add((node.value.id, node.attr))
    return sorted(refs)


REFERENCES = _workload_references()


def test_workload_references_found():
    assert ("cli", "_table_json") in REFERENCES
    assert ("cohomology", "h2") in REFERENCES


@pytest.mark.parametrize("module, path", REFERENCES)
def test_workload_reference_resolves(module, path):
    _resolve(module, path)


def test_cli_import_loads_every_traced_module():
    # install() finds each target's module in sys.modules after `import belyilab.cli`
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(belyilab.__file__)))
    code = "import sys, belyilab.cli; print(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.split()
    assert {"belyilab." + t[0] for t in TARGETS} <= set(out)
