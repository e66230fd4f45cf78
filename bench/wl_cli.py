"""Workload `cli`: one fresh `python -m belyilab.cli --json ...` per op.

Ops run one at a time on small inputs, so interpreter start and
`import belyilab.cli` (sympy included) dominate: `analyze` and
`descend --refine` on a degree-3..5 cover, `chartab` on a relabelled S4,
`cohomology` on a trivial module Z/m over Z/n, and `genus1 jdeg t`.  The
seed picks the covers, relabellings, (n, m) and t.  Input files are
written at set-up into a scratch directory of the checkout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from common import (
    check_table,
    cyclic_gens,
    expect,
    is_transitive,
    one_based,
    random_perm,
    relabel,
    seeded,
    symmetric_gens,
)
from wl_algebra import check_jdeg
from wl_covers import check_analysis, check_descent, closure_oracle

TAIL_PCT = 70
ROUNDS = 4
OP_TIMEOUT_S = 60


class Cli:
    name = "cli"
    tail_pct = TAIL_PCT

    def __init__(self, seed, root, workdir, env):
        rng = seeded(seed, "cli")
        self.root = root
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = env
        self.items = []
        for r in range(ROUNDS):
            n = rng.randint(3, 5)
            while True:
                x, y = random_perm(rng, n), random_perm(rng, n)
                if is_transitive((x, y), n):
                    break
            cover = {"degree": n, "x": one_based(x), "y": one_based(y)}
            cover_path = self._write("cover%d.json" % r, cover)
            s4 = [one_based(g) for g in relabel(symmetric_gens(4), rng)]
            group_path = self._write("s4_%d.json" % r, {"degree": 4, "generators": s4})
            h, m = rng.randint(2, 6), rng.randint(2, 6)
            module = {
                "group": {"degree": h, "generators": [one_based(g) for g in relabel(cyclic_gens(h), rng)]},
                "shape": [m],
                "action": [[[1]]] * h,
            }
            module_path = self._write("module%d.json" % r, module)
            t = rng.randrange(3, 32, 2)
            self.items += [
                {"kind": "analyze", "argv": ["analyze", "--input", cover_path], "cover": cover},
                {"kind": "chartab", "argv": ["chartab", "--group", group_path]},
                {"kind": "descend", "argv": ["descend", "--refine", "--input", cover_path], "cover": cover},
                {"kind": "cohomology", "argv": ["cohomology", "--module", module_path], "n": h, "m": m},
                {"kind": "jdeg", "argv": ["genus1", "jdeg", str(t)], "t": t},
            ]
        self.round_len = len(self.items) // ROUNDS
        self.warmup = self.items[-1]
        self._expected = {}

    def _write(self, name, data):
        path = self.workdir / name
        path.write_text(json.dumps(data))
        return str(path.relative_to(self.root))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, item):
        proc = subprocess.run(
            [sys.executable, "-m", "belyilab.cli", "--json"] + item["argv"],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("exit code %d: %s" % (proc.returncode, proc.stderr.strip()[-300:]))
        return json.loads(proc.stdout)

    def check(self, item, out):
        kind = item["kind"]
        if kind in ("analyze", "descend"):
            key = json.dumps(item["cover"])
            if key not in self._expected:
                self._expected[key] = closure_oracle(item["cover"])
            exp = self._expected[key]
            if kind == "analyze":
                check_analysis(exp, out)
            else:
                check_descent(exp, out)
        elif kind == "chartab":
            check_table(out, 24, "S4")
            expect(sorted(out["degrees"]) == [1, 1, 2, 3, 3], "S4 degrees %s" % out["degrees"])
        elif kind == "cohomology":
            n, m = item["n"], item["m"]
            expect(out["order_H"] == n, "|H| = %d, expected %d" % (out["order_H"], n))
            g = math.gcd(n, m)
            expect(out["order_H2"] == g, "|H^2(Z/%d, Z/%d)| = %d, expected gcd %d" % (n, m, out["order_H2"], g))
        else:
            check_jdeg(item["t"], out["degree"])
