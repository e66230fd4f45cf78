"""Each `python -m belyilab.cli` command loads only the modules it runs.

Every CLI call is a fresh process, so what it imports is part of its
running time.  These tests run each command under `-X importtime` on a
tiny input and compare the belyilab modules it loaded with the modules
the command uses; a command without cyclotomic arithmetic must not load
`fractions` either.  A library `import belyilab.cli` still loads them all
(tests/test_bench_targets.py), and everything they load is in the
standard library.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import belyilab

SRC = os.path.dirname(os.path.dirname(belyilab.__file__))
BASE = {"belyilab", "belyilab.errors", "belyilab.permgroup"}

INPUTS = {
    "cover.json": {"degree": 3, "x": [2, 3, 1], "y": [2, 1, 3]},
    "s3.json": {"degree": 3, "generators": [[2, 3, 1], [2, 1, 3]]},
    "z2.json": {"degree": 2, "generators": [[2, 1]]},
    "module.json": {
        "group": {"degree": 2, "generators": [[2, 1]]},
        "shape": [2],
        "action": [[[1]], [[1]]],
    },
}

CASES = [
    pytest.param(["analyze", "--input", "cover.json"], {"cover"}, id="analyze"),
    pytest.param(
        ["descend", "--refine", "--input", "cover.json"],
        {"cover", "descent", "chartab", "cyclotomic", "snf"},
        id="descend",
    ),
    pytest.param(["chartab", "--group", "s3.json"], {"chartab", "cyclotomic", "snf"}, id="chartab"),
    pytest.param(
        ["cohomology", "--module", "module.json"],
        {"cohomology", "groups", "snf"},
        id="cohomology",
    ),
    pytest.param(["genus1", "jdeg", "5"], {"genus1", "cyclotomic"}, id="genus1-jdeg"),
    pytest.param(
        ["genus1", "kummer", "1", "1", "3"],
        {"genus1", "cover", "cyclotomic"},
        id="genus1-kummer",
    ),
    pytest.param(
        ["relmod", "--group", "z2.json", "--rank", "2", "--mod", "2"],
        {"relmod", "cohomology", "groups", "snf", "chartab", "cyclotomic"},
        id="relmod",
    ),
]

# `import time: self [us] | cumulative | name`, the name indented by depth
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s+(\S+)$")


def loaded_modules(argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "belyilab.cli", "--json"] + argv,
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    json.loads(proc.stdout)
    return {m.group(1) for m in map(_IMPORT_LINE.match, proc.stderr.splitlines()) if m}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_imports")
    for name, data in INPUTS.items():
        (root / name).write_text(json.dumps(data))
    return root


@pytest.mark.parametrize("argv, modules", CASES)
def test_command_loads_only_its_modules(inputs, argv, modules):
    loaded = loaded_modules(argv, inputs)
    belyilab_loaded = {m for m in loaded if m == "belyilab" or m.startswith("belyilab.")}
    assert belyilab_loaded == BASE | {"belyilab." + m for m in modules}
    if "cyclotomic" not in modules:
        assert "fractions" not in loaded


def test_runtime_needs_only_the_stdlib():
    # a fresh process imports the CLI and the corpus, which between them
    # load every belyilab module; nothing new outside the stdlib may come in
    code = (
        "import sys; before = set(sys.modules); import belyilab.cli, belyilab.corpus; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert "belyilab" in loaded
    assert loaded - {"belyilab"} <= sys.stdlib_module_names
