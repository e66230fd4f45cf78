"""Spans around calls into belyilab's public functions, for traced runs.

Only a traced run imports this module.  `install` replaces each target
function or method with a wrapper at every place it is bound: the class
for methods, and every belyilab module that imported a module-level
function by name.  Nested calls therefore get nested spans.  Each span
records its id, name, start, end, parent span id and op id; spans stay in
memory and are written out when the run ends.  A span's self time is its duration minus the time of
its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter


def _permgroup_size(tr, args, result):
    tr.count("permgroup.elements_enumerated", args[0].order)


def _table_size(tr, args, result):
    tab = args[0]
    tr.count("chartab.classes_total", tab.nclasses())
    tr.maximum("chartab.dixon_prime_max", getattr(tab, "_prime", 0))


def _certify_hit(tr, args, result):
    tr.count("descent.certify_hits", 1 if result else 0)


def _lattice_dim(tr, args, result):
    M = args[0]
    tr.maximum("cohomology.h2.lattice_dim_max", (M.H.order - 1) ** 2 * M.k)


def _extend_hit(tr, args, result):
    tr.count("cohomology.extend_hits", 0 if result is None else 1)


def _lift_space(tr, args, result):
    space = 1
    for fiber in args[0].fibers():
        space *= len(fiber)
    tr.count("gaschuetz.lift_hits", result)
    tr.count("gaschuetz.lift_space", space)


# (module, attribute path, span name, hook run after the call).  Targets
# without a metric of their own still give their self time to the right
# layer's share.
TARGETS = [
    ("permgroup", "PermGroup.__init__", "permgroup.PermGroup", _permgroup_size),
    ("permgroup", "PermGroup.stabilizer", "permgroup.stabilizer", None),
    ("permgroup", "PermGroup.normalizer", "permgroup.normalizer", None),
    ("permgroup", "PermGroup.coset_action", "permgroup.coset_action", None),
    ("permgroup", "PermGroup.small_generating_set", "permgroup.small_generating_set", None),
    ("permgroup", "PermGroup.conjugacy_classes", "permgroup.conjugacy_classes", None),
    ("permgroup", "PermGroup.power_map", "permgroup.power_map", None),
    ("cover", "BelyiCover.__init__", "cover.BelyiCover", None),
    ("cover", "validate", "cover.validate", None),
    ("cover", "tate_characters", "cover.tate_characters", None),
    ("cover", "analysis_report", "cover.analysis_report", None),
    ("chartab", "CharacterTable.__init__", "chartab.CharacterTable", _table_size),
    ("chartab", "character_table", "chartab.character_table", None),
    ("chartab", "perm_character", "chartab.perm_character", None),
    ("chartab", "CharacterTable.fixed_space_dim", "chartab.fixed_space_dim", None),
    ("chartab", "CharacterTable.decompose", "chartab.decompose", None),
    ("chartab", "VirtualCharacter.restrict", "chartab.restrict", None),
    ("descent", "descent_report", "descent.descent_report", None),
    ("descent", "criterion_rows", "descent.criterion_rows", None),
    ("descent", "refine_search", "descent.refine_search", None),
    ("descent", "subgroup_certify", "descent.subgroup_certify", _certify_hit),
    ("cohomology", "FiniteHModule.__init__", "cohomology.FiniteHModule", None),
    ("cohomology", "h2", "cohomology.h2", _lattice_dim),
    ("cohomology", "H2Data.class_of", "cohomology.class_of", None),
    ("cohomology", "aut_h", "cohomology.aut_h", None),
    ("cohomology", "build_extension", "cohomology.build_extension", None),
    ("cohomology", "extension_class", "cohomology.extension_class", None),
    ("cohomology", "extend_automorphism", "cohomology.extend_automorphism", _extend_hit),
    ("snf", "smith_normal_form", "snf.smith_normal_form", None),
    ("snf", "solve_integer", "snf.solve_integer", None),
    ("relmod", "schreier_data", "relmod.schreier_data", None),
    ("relmod", "rational_character", "relmod.rational_character", None),
    ("relmod", "extension_cocycle", "relmod.extension_cocycle", None),
    ("relmod", "verify_main_theorem", "relmod.verify_main_theorem", None),
    ("groups", "TableGroup.__init__", "groups.TableGroup", None),
    ("groups", "automorphisms", "groups.automorphisms", None),
    ("gaschuetz", "SurjectionProblem.__init__", "gaschuetz.SurjectionProblem", None),
    ("gaschuetz", "count_lifts", "gaschuetz.count_lifts", _lift_space),
    ("genus1", "j_invariant_degree", "genus1.j_invariant_degree", None),
]

OP = "bench.op"

# layers whose self time is reported as a share of op time; cyclotomic
# arithmetic runs inside chartab's spans and is counted there
LAYERS = (
    "permgroup",
    "cover",
    "chartab",
    "descent",
    "cohomology",
    "snf",
    "relmod",
    "groups",
    "gaschuetz",
    "genus1",
    "bench",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (id, name id, start, end, parent id, op id, self time)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = [[0, 0.0]]  # the root frame has span id 0
        self._next_id = 1
        self.op_id = -1

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key, value):
        if self.op_id >= 0:
            self.counters[key] += value

    def maximum(self, key, value):
        if self.op_id >= 0:
            self.maxima[key] = max(self.maxima[key], value)

    def call(self, name_id, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            parent[1] += end - start
            self.spans.append((sid, name_id, start, end, parent[0], self.op_id, end - start - frame[1]))

    def wrap(self, name, fn, hook):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name_id, fn, args, kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def run_op(self, op_id, fn, *args):
        """Run one op inside a root span; op id -1 marks the warm-up."""
        self.op_id = op_id
        try:
            return self.call(self._name_id(OP), fn, args, {})
        finally:
            self.op_id = -1

    # -- results -----------------------------------------------------------

    def stats(self):
        """name -> [calls, self seconds, total seconds] over timed ops."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name_id, start, end, _, op_id, self_s in self.spans:
            if op_id < 0:
                continue
            s = out[self.names[name_id]]
            s[0] += 1
            s[1] += self_s
            s[2] += end - start
        return out

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for sid, name_id, start, end, parent, op_id, _ in self.spans:
                fh.write(json.dumps([sid, self.names[name_id], start, end, parent, op_id]) + "\n")


def install(tracer):
    """Wrap every target at its class, or in each belyilab module that
    binds it.  The workloads call module functions through the module
    (`cover.validate`), so patching belyilab's namespaces reaches them."""
    import belyilab.cli  # noqa: F401  (imports every belyilab module)

    namespaces = [m for n, m in sys.modules.items() if n.startswith("belyilab")]
    for module, path, name, hook in TARGETS:
        owner = sys.modules["belyilab." + module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), hook))
            continue
        original = getattr(owner, path)
        wrapper = tracer.wrap(name, original, hook)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)


def per_layer_metrics(tracer, ops, ops_per_s):
    """The per-layer metrics of BENCHMARK.json from a traced run's spans."""
    st = tracer.stats()
    ops = max(ops, 1)
    op_time = st[OP][2] or 1.0
    c, m = tracer.counters, tracer.maxima

    def calls(name):
        return st[name][0] / ops, "1/op"

    def self_s(name):
        return st[name][1] / ops, "s/op"

    def ratio(hits, tries):
        return (hits / tries if tries else 0.0), "ratio"

    out = {
        "trace.ops_per_s": (ops_per_s, "1/s"),
        "permgroup.PermGroup.calls": calls("permgroup.PermGroup"),
        "permgroup.PermGroup.self_s": self_s("permgroup.PermGroup"),
        "permgroup.elements_enumerated": (c["permgroup.elements_enumerated"] / ops, "1/op"),
        "permgroup.stabilizer.self_s": self_s("permgroup.stabilizer"),
        "permgroup.coset_action.self_s": self_s("permgroup.coset_action"),
        "permgroup.small_generating_set.self_s": self_s("permgroup.small_generating_set"),
        "permgroup.conjugacy_classes.self_s": self_s("permgroup.conjugacy_classes"),
        "permgroup.power_map.calls": calls("permgroup.power_map"),
        "permgroup.power_map.self_s": self_s("permgroup.power_map"),
        "cover.validate.calls": calls("cover.validate"),
        "cover.validate.self_s": self_s("cover.validate"),
        "cover.tate_characters.self_s": self_s("cover.tate_characters"),
        "cover.analysis_report.self_s": self_s("cover.analysis_report"),
        "chartab.CharacterTable.calls": calls("chartab.CharacterTable"),
        "chartab.CharacterTable.self_s": self_s("chartab.CharacterTable"),
        "chartab.classes_total": (c["chartab.classes_total"] / ops, "1/op"),
        "chartab.dixon_prime_max": (m["chartab.dixon_prime_max"], "count"),
        "chartab.fixed_space_dim.self_s": self_s("chartab.fixed_space_dim"),
        "chartab.restrict.self_s": self_s("chartab.restrict"),
        "chartab.decompose.self_s": self_s("chartab.decompose"),
        "descent.criterion_rows.self_s": self_s("descent.criterion_rows"),
        "descent.refine_search.self_s": self_s("descent.refine_search"),
        "descent.subgroup_certify.calls": calls("descent.subgroup_certify"),
        "descent.certify_hit_ratio": ratio(c["descent.certify_hits"], st["descent.subgroup_certify"][0]),
        "cohomology.h2.self_s": self_s("cohomology.h2"),
        "cohomology.h2.lattice_dim_max": (m["cohomology.h2.lattice_dim_max"], "count"),
        "cohomology.aut_h.self_s": self_s("cohomology.aut_h"),
        "cohomology.build_extension.self_s": self_s("cohomology.build_extension"),
        "cohomology.extend_automorphism.calls": calls("cohomology.extend_automorphism"),
        "cohomology.extend_hit_ratio": ratio(
            c["cohomology.extend_hits"], st["cohomology.extend_automorphism"][0]
        ),
        "snf.smith_normal_form.calls": calls("snf.smith_normal_form"),
        "snf.smith_normal_form.self_s": self_s("snf.smith_normal_form"),
        "relmod.schreier_data.self_s": self_s("relmod.schreier_data"),
        "relmod.rational_character.self_s": self_s("relmod.rational_character"),
        "relmod.verify_main_theorem.self_s": self_s("relmod.verify_main_theorem"),
        "groups.automorphisms.self_s": self_s("groups.automorphisms"),
        "gaschuetz.count_lifts.self_s": self_s("gaschuetz.count_lifts"),
        "gaschuetz.lift_hit_ratio": ratio(c["gaschuetz.lift_hits"], c["gaschuetz.lift_space"]),
        "genus1.j_invariant_degree.self_s": self_s("genus1.j_invariant_degree"),
    }
    shares = defaultdict(float)
    for name, (_, own, _) in st.items():
        shares["bench" if name == OP else name.split(".")[0]] += own
    for layer in LAYERS:
        out["share.%s" % layer] = (shares[layer] / op_time, "ratio")
    return out
