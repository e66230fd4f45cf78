"""Every function under src/belyilab is reached by a run of the program.

Run from a checkout's root:

    PYTHONPATH=src python tests/reachability.py

With sys.setprofile recording every Python function entered, the script
runs the built-in corpus, every record of tests/data/golden.json through
cli.main in JSON and in text mode, one `cohomology --cocycle` call, one
usage error, and one seed-1 round of the `covers`, `algebra` and
`chartab` benchmark workloads (bench/wl_*.py) with their oracle checks.
It then lists each `def` in src/belyilab, nested ones included, found by
ast.  A code object's first line is its `def` line, or its first
decorator's when it has decorators.

It exits 1 when a def is never entered and not in ALLOWLIST, or when an
ALLOWLIST entry is entered or names no def; 0 otherwise.  pytest does not
collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "belyilab"

# qualified name -> why no run of the program enters it
ALLOWLIST = {
    # wrapped by bench/tracer.py, called by nothing in the program
    "permgroup.PermGroup.stabilizer": "bench/tracer.py target",
    "permgroup.PermGroup.normalizer": "bench/tracer.py target",
    "permgroup.PermGroup.power_map": "bench/tracer.py target",
    "descent.subgroup_certify": "bench/tracer.py target",
    "groups.automorphisms": "bench/tracer.py target",
    "groups.TableGroup.order_of": "called only by groups.automorphisms",
    "groups.homomorphism_from_generators": "called only by groups.automorphisms",
    "snf.solve_integer": "bench/tracer.py target",
    # used by tests only, until a ROADMAP item puts it to use or removes it
    "relmod.rewrite": "test-only (ROADMAP item 12)",
    # reached only when the library itself is at fault
    "gaschuetz.SurjectionProblem.d": "error path",
    # debugging aids
    "permgroup.Permutation.__repr__": "debugging aid",
    "cyclotomic.Cyclotomic.__repr__": "debugging aid",
}

Z2_MODULE = {
    "group": {"degree": 2, "generators": [[2, 1]]},
    "shape": [2],
    "action": [[[1]], [[1]]],
}
# Z/4 as an extension of Z/2 by Z/2: the nontrivial class
Z2_COCYCLE = {"table": [[[0], [0]], [[0], [1]]]}


def src_defs():
    """[(qualified name, keys)] for every def in src/belyilab, a key being
    (file, first line, name) with the def's line or a decorator's."""
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + "." + child.name
                if not isinstance(child, ast.ClassDef):
                    lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                    out.append((name, {(str(path), l, child.name) for l in lines}))
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.resolve(), path.stem)
    return out


def run_program():
    """Run everything the check covers; exits on a wrong result."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]
    from make_golden import run_case

    from belyilab.cli import main as cli_main
    from belyilab.corpus import run_corpus

    if not all(r["pass"] for r in run_corpus()):
        sys.exit("reachability: the corpus failed")
    records = json.loads((ROOT / "tests" / "data" / "golden.json").read_text())
    inputs = {"module": Z2_MODULE, "cocycle": Z2_COCYCLE}
    cocycle = ["--json", "cohomology", "--module", "{module}", "--cocycle", "{cocycle}"]
    with tempfile.TemporaryDirectory() as workdir:
        for rec in records:
            code, stdout, _ = run_case(rec["argv"], rec["inputs"], workdir)
            if (code, stdout) != (rec["exit"], rec["stdout"]):
                sys.exit("reachability: %s differs from golden.json" % rec["name"])
            text = ["--text" if a == "--json" else a for a in rec["argv"]]
            if run_case(text, rec["inputs"], workdir)[0] != rec["exit"]:
                sys.exit("reachability: %s exits differently in text mode" % rec["name"])
        code, stdout, _ = run_case(cocycle, inputs, workdir)
        if code != 0 or json.loads(stdout)["class"] != [1]:
            sys.exit("reachability: the cocycle class of Z/4 over Z/2 is not [1]")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli_main(["analyze"])  # no --input: a usage error
    except SystemExit as exc:
        if exc.code != 1:
            sys.exit("reachability: a usage error exited with %r, not 1" % exc.code)
    else:
        sys.exit("reachability: a usage error did not exit")

    from wl_algebra import Algebra
    from wl_chartab import Chartab
    from wl_covers import Covers

    for workload in (Covers(1), Algebra(1), Chartab(1)):
        for item in workload.items[: workload.round_len]:
            workload.check(item, workload.run(item))


def main():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_program()
    finally:
        sys.setprofile(None)
    starts = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in entered}
    defs = src_defs()
    hit = [not keys.isdisjoint(starts) for _, keys in defs]
    reached = {name for (name, _), h in zip(defs, hit) if h}
    unreached = {name for (name, _), h in zip(defs, hit) if not h}
    errors = ["never entered: %s" % name for name in sorted(unreached - ALLOWLIST.keys())]
    errors += ["allowlisted but entered: %s" % name for name in sorted(reached & ALLOWLIST.keys())]
    errors += [
        "allowlisted but not a def: %s" % name
        for name in sorted(ALLOWLIST.keys() - reached - unreached)
    ]
    for line in errors:
        print("reachability: %s" % line, file=sys.stderr)
    print(
        "reachability: %d defs, %d entered, %d allowlisted, %d errors"
        % (len(defs), hit.count(True), len(ALLOWLIST), len(errors))
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
