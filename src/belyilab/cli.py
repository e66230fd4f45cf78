"""Command-line front end.

Commands: analyze, descend, chartab, cohomology, relmod, gaschuetz,
genus1, corpus.  Input is JSON (covers, groups, modules); output is JSON
(--json) or an aligned text report (default).  Input is validated as it
is parsed.  Exit codes: 0 success, 1 precondition or input error
(PreconditionError), a usage error or a closed stdout, 2 for an internal
invariant violation or any other exception, which is a bug and is printed
with its traceback.  Each command imports the belyilab modules it runs,
so a `python -m belyilab.cli` process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InternalError, PreconditionError
from .permgroup import PermGroup, Permutation


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PreconditionError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(
            "malformed JSON in %s at line %d column %d"
            % (path, exc.lineno, exc.colno)
        ) from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer past Python's digit limit
        # for int(), or nesting deeper than the recursion limit
        raise PreconditionError("malformed JSON in %s: %s" % (path, exc)) from exc


def _parse_permutations(data, what):
    if not isinstance(data, list):
        raise PreconditionError("%s must be a list of image lists" % what)
    return [Permutation.from_json(images) for images in data]


def _int_array(value, dims, what):
    """value if it is nested JSON lists of integers with the given lengths
    (None: any length), else PreconditionError."""

    def fits(v, dims):
        if not dims:
            return type(v) is int
        ok = isinstance(v, list) and dims[0] in (None, len(v))
        return ok and all(fits(x, dims[1:]) for x in v)

    if not fits(value, dims):
        size = " x ".join("n" if d is None else str(d) for d in dims)
        raise PreconditionError("%s must be a %s array of integers" % (what, size))
    return value


def _parse_group(data):
    gens = _parse_permutations(
        data.get("generators") if isinstance(data, dict) else None, "group 'generators'"
    )
    if not gens:
        raise PreconditionError("group JSON needs at least one generator")
    if len({g.degree for g in gens}) != 1 or data.get("degree", gens[0].degree) != gens[0].degree:
        raise PreconditionError("the generators and the declared degree disagree")
    return PermGroup(gens)


def _parse_module(data):
    from .cohomology import FiniteHModule

    if not isinstance(data, dict):
        raise PreconditionError("module JSON needs 'group', 'shape' and 'action'")
    H = _parse_group(data.get("group"))
    shape = _int_array(data.get("shape"), [None], "module 'shape'")
    k = len(shape)
    mats = _int_array(data.get("action"), [H.order, k, k], "module 'action'")
    return FiniteHModule(H, shape, mats)


def _parse_cocycle(data, module):
    from .cohomology import Cocycle2

    n = module.H.order
    rows = data.get("table") if isinstance(data, dict) else None
    return Cocycle2(module, _int_array(rows, [n, n, module.k], "cocycle 'table'"))


def _cyclotomic_json(value):
    return {
        "conductor": value.conductor,
        "num": [c.numerator for c in value.coords],
        "den": [c.denominator for c in value.coords],
    }


def _table_json(tab):
    return {
        "order": tab.order,
        "classes": [
            {"rep": [list(c) for c in rep.cycles()], "size": size}
            for rep, size in tab.classes
        ],
        "degrees": list(tab.degrees),
        "values": [[_cyclotomic_json(v) for v in row] for row in tab.rows],
    }


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _aligned(rows, header):
    widths = [len(h) for h in header]
    srows = [[str(c) for c in row] for row in rows]
    for row in srows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    fmt = "  ".join("%%-%ds" % w for w in widths)
    out = [fmt % tuple(header), fmt % tuple("-" * w for w in widths)]
    out += [fmt % tuple(row) for row in srows]
    return out


# -- command handlers -------------------------------------------------------


def _cmd_analyze(args):
    from .cover import BelyiCover, analysis_report

    cover = BelyiCover.from_json(_load_json(args.input))
    rep = analysis_report(cover)
    lines = ["%s: %s" % (k, v) for k, v in rep.items() if k != "branch"]
    for b in ("0", "1", "inf"):
        recs = ", ".join(
            "(e=%d, ord d=%d)" % (r["e"], r["order_d"]) for r in rep["branch"][b]
        )
        lines.append("branch %s: %s" % (b, recs))
    _emit(args, rep, lines)
    return 0


def _cmd_descend(args):
    from .cover import BelyiCover
    from .descent import descent_report

    cover = BelyiCover.from_json(_load_json(args.input))
    rep = descent_report(cover, refine=args.refine)
    data = rep.to_json()
    rows = [
        (r["degree"], r["n_V"], r["m_V"], "yes" if r["passes"] else "no")
        for r in rep.rows
    ]
    lines = _aligned(rows, ("dim V", "n_V", "m_V", "passes"))
    lines.append("verdict: %s" % rep.verdict)
    if data["certificates"]:
        lines.append("certificates: %s" % ", ".join(data["certificates"]))
    _emit(args, data, lines)
    return 0


def _cmd_chartab(args):
    from .chartab import character_table

    G = _parse_group(_load_json(args.group))
    tab = character_table(G)
    data = _table_json(tab)
    rows = []
    for i, row in enumerate(tab.rows):
        rows.append([tab.degrees[i]] + [str(v) for v in row])
    header = ("deg",) + tuple("C%d(%d)" % (j, size) for j, (_, size) in enumerate(tab.classes))
    _emit(args, data, _aligned(rows, header))
    return 0


def _cmd_cohomology(args):
    from .cohomology import h2

    M = _parse_module(_load_json(args.module))
    data = h2(M)
    payload = {
        "shape": list(M.shape),
        "order_H": M.H.order,
        "invariants": data.invariants,
        "order_H2": data.order,
    }
    lines = [
        "H^2 invariant factors: %s" % (data.invariants or "trivial"),
        "order of H^2: %d" % data.order,
    ]
    if args.cocycle:
        beta = _parse_cocycle(_load_json(args.cocycle), M)
        cls = data.class_of(beta)
        payload["class"] = list(cls)
        lines.append("cocycle class: %s" % (list(cls),))
    _emit(args, payload, lines)
    return 0


def _cmd_relmod(args):
    from .cohomology import h2
    from .relmod import (
        extension_cocycle,
        rational_character,
        relation_rank,
        schreier_data,
        verify_main_theorem,
    )

    H = _parse_group(_load_json(args.group))
    gens = list(H.generators)
    if len(gens) > args.rank:
        raise PreconditionError(
            "rank %d is below the %d group generators" % (args.rank, len(gens))
        )
    relation_rank(H.order, args.rank)  # refuses a large rank before the padding below
    images = gens + [H.identity()] * (args.rank - len(gens))
    rm = schreier_data(H, images)
    chi = rational_character(rm)
    payload = {
        "order_H": H.order,
        "rank": rm.rank,
        "character": list(chi.mults),
        "degrees": list(chi.table.degrees),
    }
    lines = [
        "rank: %d" % rm.rank,
        "character multiplicities: %s" % (chi.mults,),
    ]
    if args.mod is not None:
        beta = extension_cocycle(rm, args.mod)
        data = h2(beta.module)
        cls = data.class_of(beta)
        payload["modulus"] = args.mod
        payload["h2_invariants"] = data.invariants
        payload["cocycle_class"] = list(cls)
        lines.append("H^2 invariants mod %d: %s" % (args.mod, data.invariants))
        lines.append("extension cocycle class: %s" % (list(cls),))
        if args.verify_main:
            report = verify_main_theorem(rm, args.mod, beta, data)
            payload["verify_main"] = report
            lines.append(
                "main theorem: %s (stabilizer %d, restrictions %d)"
                % (
                    "EQUAL" if report["equal"] else "MISMATCH",
                    report["stabilizer_count"],
                    report["restriction_count"],
                )
            )
            if not report["equal"]:
                raise InternalError("main-theorem verification failed")
    elif args.verify_main:
        raise PreconditionError("--verify-main requires --mod")
    _emit(args, payload, lines)
    return 0


def _cmd_gaschuetz(args):
    from .gaschuetz import SurjectionProblem, count_lifts, lift_generators

    G1 = _parse_group(_load_json(args.g1))
    G2 = _parse_group(_load_json(args.g2))
    psi_images = _parse_permutations(_load_json(args.psi), "psi")
    if len(psi_images) != len(G1.generators):
        raise PreconditionError("psi must list one image per generator of G1")
    psi = list(zip(G1.generators, psi_images))
    S2 = _parse_permutations(_load_json(args.tuple), "the tuple")
    if not all(g in G2 for g in psi_images + S2):
        raise PreconditionError("the images of psi and the tuple must lie in G2")
    problem = SurjectionProblem(G1, G2, psi, S2)
    lift = lift_generators(problem)
    count = count_lifts(problem)
    payload = {
        "lift": [g.images for g in lift],
        "count": count,
    }
    lines = ["lift: %s" % (payload["lift"],), "generating lifts over S2: %d" % count]
    _emit(args, payload, lines)
    return 0


def _cmd_genus1(args):
    from .genus1 import (
        cm_stable_subgroups,
        inertia_orders,
        inertia_triples,
        j_invariant_degree,
        kummer_cover,
    )

    sub = args.subcommand
    if sub == "triples":
        triples = inertia_triples()
        _emit(args, {"triples": [list(t) for t in triples]}, [str(t) for t in triples])
    elif sub == "kummer":
        cover = kummer_cover(args.a, args.b, args.d)
        from .cover import genus

        payload = {
            "cover": cover.to_json(),
            "genus": genus(cover),
            "inertia_orders": list(inertia_orders(args.a, args.b, args.d)),
        }
        lines = [
            "x: %s" % (cover.x.images,),
            "y: %s" % (cover.y.images,),
            "genus: %d" % payload["genus"],
            "inertia orders: %s" % (tuple(payload["inertia_orders"]),),
        ]
        _emit(args, payload, lines)
    elif sub == "cm":
        subs = cm_stable_subgroups(args.d, args.n)
        payload = {"stable_subgroups": [[list(v) for v in S] for S in subs]}
        lines = ["%d stable subgroups:" % len(subs)]
        lines += ["  order %d: %s" % (len(S), S) for S in subs]
        _emit(args, payload, lines)
    elif sub == "jdeg":
        deg = j_invariant_degree(args.t)
        _emit(args, {"t": args.t, "degree": deg}, ["degree of j over Q: %d" % deg])
    return 0


def _cmd_corpus(args):
    from .corpus import DEFAULT_SEED, run_corpus

    results = run_corpus(seed=DEFAULT_SEED if args.seed is None else args.seed)
    lines = []
    for r in results:
        lines.append(
            "criterion %2d: %s  %s -- %s"
            % (r["criterion"], "PASS" if r["pass"] else "FAIL", r["description"], r["detail"])
        )
    ok = all(r["pass"] for r in results)
    lines.append("corpus: %s" % ("all PASS" if ok else "FAILURES PRESENT"))
    _emit(args, {"results": results, "pass": ok}, lines)
    # the corpus inputs are built in, so a failed criterion is a fault of
    # the program, not bad input
    return 0 if ok else 2


# -- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as bad input does;
    subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    parser = _Parser(
        prog="belyilab",
        description="exact computational algebra for Belyi covers and descent",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument(
        "--text", action="store_true", help="emit text output (default)"
    )
    parser.add_argument(
        "--seed", type=int, help="seed for randomized searches"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closure and genus report for a cover")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("descend", help="run the descent criterion")
    p.add_argument("--input", required=True)
    p.add_argument("--refine", action="store_true")
    p.set_defaults(fn=_cmd_descend)

    p = sub.add_parser("chartab", help="character table of a group")
    p.add_argument("--group", required=True)
    p.set_defaults(fn=_cmd_chartab)

    p = sub.add_parser("cohomology", help="H^2 of a finite module")
    p.add_argument("--module", required=True)
    p.add_argument("--cocycle")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("relmod", help="relation module of a surjection")
    p.add_argument("--group", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mod", type=int)
    p.add_argument("--verify-main", action="store_true", dest="verify_main")
    p.set_defaults(fn=_cmd_relmod)

    p = sub.add_parser("gaschuetz", help="generator lifting")
    p.add_argument("subcommand", choices=["lift"])
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--tuple", required=True)
    p.set_defaults(fn=_cmd_gaschuetz)

    p = sub.add_parser("genus1", help="genus-1 classification tools")
    g1sub = p.add_subparsers(dest="subcommand", required=True)
    g1sub.add_parser("triples").set_defaults(fn=_cmd_genus1)
    pk = g1sub.add_parser("kummer")
    pk.add_argument("a", type=int)
    pk.add_argument("b", type=int)
    pk.add_argument("d", type=int)
    pk.set_defaults(fn=_cmd_genus1)
    pc = g1sub.add_parser("cm")
    pc.add_argument("d", type=int)
    pc.add_argument("n", type=int)
    pc.set_defaults(fn=_cmd_genus1)
    pj = g1sub.add_parser("jdeg")
    pj.add_argument("t", type=int)
    pj.set_defaults(fn=_cmd_genus1)

    p = sub.add_parser("corpus", help="run the bundled acceptance corpus")
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.json and args.text:
        parser.error("--json and --text are mutually exclusive")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: not a fault of the program.  Stdout now
        # points at devnull, so the interpreter's last flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PreconditionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, never reported as bad input
        import traceback

        traceback.print_exc()
        if isinstance(exc, InternalError):
            print("internal error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
else:
    # a library import loads every command's modules: bench/tracer.py finds
    # the functions it wraps in sys.modules after `import belyilab.cli`
    from . import chartab, cohomology, cover, descent, gaschuetz, genus1, relmod  # noqa: F401
