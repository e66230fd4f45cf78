"""Write tests/data/golden.json: frozen CLI outputs that test_golden.py
recomputes in process and compares byte for byte.

Run from a checkout whose outputs are the reference:

    PYTHONPATH=src python tests/make_golden.py

Each case records the argument list (with "{name}" standing for a JSON
input file), the input documents, the exit code and the exact stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from belyilab.cli import main
from belyilab.cover import BelyiCover
from belyilab.genus1 import ADMISSIBLE_KUMMER, kummer_cover
from belyilab.permgroup import Permutation

OUT = Path(__file__).parent / "data" / "golden.json"

S3 = {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
Z3 = {"degree": 3, "generators": [[2, 3, 1]]}
Z2 = {"degree": 2, "generators": [[2, 1]]}
Z4 = {"degree": 4, "generators": [[2, 3, 4, 1]]}
Z5 = {"degree": 5, "generators": [[2, 3, 4, 5, 1]]}
S4 = {"degree": 4, "generators": [[2, 1, 3, 4], [2, 3, 4, 1]]}
Q8 = {"degree": 8, "generators": [[2, 3, 4, 1, 6, 7, 8, 5], [5, 8, 7, 6, 3, 2, 1, 4]]}
README_MODULE = {
    "group": {"degree": 2, "generators": [[2, 1]]},
    "shape": [2, 2],
    "action": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
}


def _perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def fixture_covers():
    covers = {
        "a5_degree5": BelyiCover(_perm(5, (1, 2, 3)), _perm(5, (1, 2, 3, 4, 5))),
        "a5_regular": BelyiCover.regular(_perm(5, (1, 2, 3)), _perm(5, (1, 2, 3, 4, 5))),
        "cubic": BelyiCover(_perm(3, (1, 2, 3)), _perm(3, (1, 2, 3))),
        "isogeny": BelyiCover(Permutation([2, 4, 5, 1, 6, 3]), Permutation([3, 4, 5, 6, 1, 2])),
        "trivial": BelyiCover(Permutation([1]), Permutation([1])),
        "s8": BelyiCover(_perm(8, (1, 2)), _perm(8, (1, 2, 3, 4, 5, 6, 7, 8))),
    }
    for a, b, d in ADMISSIBLE_KUMMER:
        covers["kummer_%d_%d_%d" % (a, b, d)] = kummer_cover(a, b, d)
    return covers


def seeded_covers(seed=4, count=30):
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        n = rng.randint(2, 8)
        x = rng.sample(range(1, n + 1), n)
        y = rng.sample(range(1, n + 1), n)
        try:
            BelyiCover(Permutation(x), Permutation(y))
        except ValueError:
            continue
        out["seeded_%02d" % len(out)] = BelyiCover(Permutation(x), Permutation(y))
    return out


def cases():
    out = []
    for name, cover in {**fixture_covers(), **seeded_covers()}.items():
        inputs = {"cover": cover.to_json()}
        out.append((name + "/analyze", ["--json", "analyze", "--input", "{cover}"], inputs))
        out.append(
            (name + "/descend", ["--json", "descend", "--refine", "--input", "{cover}"], inputs)
        )
    relmod = (
        ("s3", S3, ["--rank", "2", "--mod", "2"]),
        ("z3", Z3, ["--rank", "2", "--mod", "2"]),
        ("q8", Q8, ["--rank", "2"]),
        ("q8_rank3", Q8, ["--rank", "3"]),
    )
    for name, group, flags in relmod:
        out.append(
            (name + "/relmod", ["--json", "relmod", "--group", "{group}"] + flags, {"group": group})
        )
    # --verify-main on R-bar/m for cyclic H, |P| = |H| * m^rank up to 64
    verify = (
        ("z2", Z2, 2, 2),
        ("z3", Z3, 1, 3),
        ("z4", Z4, 1, 8),
        ("z5", Z5, 1, 9),
        ("z2_m32", Z2, 1, 32),
    )
    for name, group, rank, mod in verify:
        argv = ["--json", "relmod", "--group", "{group}", "--rank", str(rank)]
        argv += ["--mod", str(mod), "--verify-main"]
        out.append((name + "/verify_main", argv, {"group": group}))
    for name, group in (("s4", S4), ("q8", Q8)):
        argv = ["--json", "chartab", "--group", "{group}"]
        out.append((name + "/chartab", argv, {"group": group}))
    argv = ["--json", "cohomology", "--module", "{module}"]
    out.append(("readme/cohomology", argv, {"module": README_MODULE}))
    # the built-in corpus, every criterion (its JSON carries no timings)
    out.append(("builtin/corpus", ["--json", "corpus"], {}))
    genus1 = [["triples"], ["kummer", "1", "2", "6"], ["cm", "3", "7"]]
    genus1 += [["jdeg", str(t)] for t in (21, 1155, 3003)]
    for args in genus1:
        out.append(("_".join(args) + "/genus1", ["--json", "genus1"] + args, {}))
    z6 = {"generators": [[2, 3, 4, 5, 6, 1]]}
    z3 = {"generators": [[2, 3, 1]]}
    argv = ["--json", "gaschuetz", "lift", "--g1", "{g1}", "--g2", "{g2}"]
    argv += ["--psi", "{psi}", "--tuple", "{tuple}"]
    inputs = {"g1": z6, "g2": z3, "psi": [[2, 3, 1]], "tuple": [[2, 3, 1]]}
    out.append(("z6_z3/gaschuetz", argv, inputs))
    # Z/3 at rank 2 and m = 2 (|P| = 48): aut_h looks for the units of
    # End_H(R-bar/2) among the 2^16 matrices on (Z/2)^4
    argv = ["--json", "relmod", "--group", "{group}", "--rank", "2", "--mod", "2"]
    out.append(("z3_rank2/verify_main", argv + ["--verify-main"], {"group": Z3}))
    # past |P| = 64, which no table of P reached: S3 at rank 2 and m = 2
    # (|P| = 768) and Z/3 at rank 2 and m = 3 (|P| = 243)
    out.append(("s3_rank2/verify_main", argv + ["--verify-main"], {"group": S3}))
    argv = ["--json", "relmod", "--group", "{group}", "--rank", "2", "--mod", "3"]
    out.append(("z3_rank2_m3/verify_main", argv + ["--verify-main"], {"group": Z3}))
    # Q8 at rank 2 and m = 2: H^2 from 81 unknowns of Hom_H(R-bar, M), where
    # the 2-cochains have dimension (8-1)^2 * 9 = 441
    argv = ["--json", "relmod", "--group", "{group}", "--rank", "2", "--mod", "2"]
    out.append(("q8/relmod_mod2", argv, {"group": Q8}))
    return out


def run_case(argv, inputs, workdir):
    """(exit code, stdout, stderr) of the CLI with each "{key}" in argv
    replaced by a file in workdir holding inputs[key]."""
    paths = {}
    for key, data in inputs.items():
        path = Path(workdir) / (key + ".json")
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**paths) for a in argv])
    return code, out.getvalue(), err.getvalue()


def build():
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv, inputs in cases():
            code, stdout, _ = run_case(argv, inputs, workdir)
            records.append(
                {"name": name, "argv": argv, "inputs": inputs, "exit": code, "stdout": stdout}
            )
    return records


if __name__ == "__main__":
    records = build()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print("wrote %d cases to %s" % (len(records), OUT), file=sys.stderr)
