import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import belyilab
import belyilab.cohomology
import belyilab.corpus
import belyilab.relmod
from belyilab.cli import main
from belyilab.cover import BelyiCover
from belyilab.permgroup import Permutation
from make_golden import run_case
from test_chartab import corrupt_power_tables
from test_cover import SwappedPoints
from test_relmod import replace_last_derivation, zero_matrix


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def refused_quickly(capsys, argv, message):
    """main(argv) exits 1 with empty stdout and the message on stderr,
    within a second."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err
    assert elapsed < 1.0


@pytest.fixture
def cubic(tmp_path):
    return write_json(tmp_path, "cubic.json", {"degree": 3, "x": [2, 3, 1], "y": [2, 3, 1]})


@pytest.fixture
def a5_regular(tmp_path):
    x = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    y = Permutation.from_cycles(5, [(3, 4, 5)])
    cover = BelyiCover.regular(x, y)
    return write_json(tmp_path, "a5reg.json", cover.to_json())


@pytest.fixture
def s3_group(tmp_path):
    return write_json(
        tmp_path, "s3.json", {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
    )


class TestAnalyze:
    def test_cubic_text(self, capsys, cubic):
        code, out = run(capsys, ["analyze", "--input", cubic])
        assert code == 0
        assert "genus: 1" in out
        assert "order_D: 3" in out
        assert "is_galois: True" in out

    def test_cubic_json_round_trip(self, capsys, cubic):
        code, out = run(capsys, ["--json", "analyze", "--input", cubic])
        assert code == 0
        data = json.loads(out)
        assert data["genus"] == 1
        assert data["order_H"] == 3
        assert json.loads(json.dumps(data)) == data

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["analyze", "--input", "/no/such/file.json"])
        assert code == 1

    def test_malformed_permutation(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", {"x": [1, 1, 2], "y": [2, 3, 1]})
        code, _ = run(capsys, ["analyze", "--input", path])
        assert code == 1

    def test_degree_zero_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path, "empty.json", {"x": [], "y": []})
        code = main(["--json", "analyze", "--input", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    S3 = {"x": [2, 1, 3], "y": [2, 3, 1]}

    @pytest.mark.parametrize("galois", ["false", "true", 0, 1, None])
    def test_galois_must_be_a_json_boolean(self, capsys, tmp_path, galois):
        # a truthy non-boolean once built the degree-6 regular cover
        path = write_json(tmp_path, "s3.json", dict(self.S3, galois=galois))
        code = main(["--json", "analyze", "--input", path])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: 'galois' must be true or false\n"

    def test_galois_true_false_and_absent(self, capsys, tmp_path):
        outs = {}
        cases = {"true": {"galois": True}, "false": {"galois": False}, "absent": {}}
        for name, extra in cases.items():
            path = write_json(tmp_path, name + ".json", dict(self.S3, **extra))
            code, outs[name] = run(capsys, ["--json", "analyze", "--input", path])
            assert code == 0
        assert outs["false"] == outs["absent"]
        assert json.loads(outs["absent"])["degree"] == 3
        regular = json.loads(outs["true"])
        assert regular["degree"] == 6 and regular["is_galois"] is True


class TestDescend:
    def test_cubic_descends(self, capsys, cubic):
        code, out = run(capsys, ["descend", "--input", cubic])
        assert code == 0
        assert "verdict: DESCENDS" in out

    def test_a5_regular_fails_on_degree4(self, capsys, a5_regular):
        code, out = run(capsys, ["--json", "descend", "--input", a5_regular])
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "DOES_NOT_DESCEND"
        bad = [r for r in data["rows"] if not r["passes"]]
        assert {"degree": 4, "n_V": 2, "m_V": 4, "passes": False} in bad

    def test_deterministic_output(self, capsys, cubic):
        _, out1 = run(capsys, ["--json", "descend", "--input", cubic])
        _, out2 = run(capsys, ["--json", "descend", "--input", cubic])
        assert out1 == out2

    def test_necessity_violation_exits_2_with_traceback(self, capsys, a5_regular, monkeypatch):
        # a certificate on a Galois cover that fails the criterion is a fault
        monkeypatch.setattr("belyilab.descent.refine_search", lambda cd: [("D", cd.D)])
        code = main(["--json", "descend", "--refine", "--input", a5_regular])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert "internal error: necessity violated" in captured.err


class TestClosureFaults:
    def test_deck_transformation_outside_d_exits_2(self, capsys, tmp_path, monkeypatch):
        # the fault of test_cover's SwappedPoints: D built on relabelled
        # positions misses a deck transformation of the Z/4 cover
        monkeypatch.setattr("belyilab.cover.PermGroup", SwappedPoints)
        path = write_json(tmp_path, "z4.json", {"x": [2, 3, 4, 1], "y": [2, 3, 4, 1]})
        code = main(["--json", "analyze", "--input", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert "internal error: a deck transformation of Fix(J) lies outside D" in captured.err


class TestLargeGroups:
    S12 = {"x": [2, 1] + list(range(3, 13)), "y": list(range(2, 13)) + [1]}

    def test_galois_s12_rejected_before_enumeration(self, capsys, tmp_path):
        path = write_json(tmp_path, "s12g.json", dict(self.S12, galois=True))
        code = main(["analyze", "--input", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_galois_s7_refused_before_its_regular_action(self, capsys, tmp_path):
        # |S7| = 5040: a degree-5040 cover whose transversal would hold
        # 5040^2 integers, refused on its Schreier-Sims order
        cover = {"galois": True, "x": [2, 1, 3, 4, 5, 6, 7], "y": [2, 3, 4, 5, 6, 7, 1]}
        path = write_json(tmp_path, "s7g.json", cover)
        refused_quickly(
            capsys,
            ["--json", "analyze", "--input", path],
            "a Galois cover of a group of order 5040 is too large (limit 2000)",
        )

    def test_degree12_s12_cover(self, capsys, tmp_path):
        path = write_json(tmp_path, "s12.json", self.S12)
        code, out = run(capsys, ["--json", "analyze", "--input", path])
        assert code == 0
        assert json.loads(out)["order_H"] == 479001600
        code, _ = run(capsys, ["--json", "descend", "--refine", "--input", path])
        assert code == 0


class TestChartab:
    def test_s3_json(self, capsys, s3_group):
        code, out = run(capsys, ["--json", "chartab", "--group", s3_group])
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 6
        assert sorted(data["degrees"]) == [1, 1, 2]
        assert sum(c["size"] for c in data["classes"]) == 6
        for row in data["values"]:
            for v in row:
                assert set(v) == {"conductor", "num", "den"}
                assert len(v["num"]) == len(v["den"])

    def test_s3_text(self, capsys, s3_group):
        code, out = run(capsys, ["chartab", "--group", s3_group])
        assert code == 0
        assert "-1" in out

    def test_z3_text_prints_irrational_values(self, capsys, tmp_path):
        # the characters of Z/3 take the values z3 and z3^2 = -1 - z3
        path = write_json(tmp_path, "z3.json", {"generators": [[2, 3, 1]]})
        code, out = run(capsys, ["chartab", "--group", path])
        assert code == 0
        assert "1*z3^1" in out and "-1 + -1*z3^1" in out

    def test_bad_group(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", {"generators": []})
        code, _ = run(capsys, ["chartab", "--group", path])
        assert code == 1

    def test_elementary_abelian_64_refused_before_dixon(self, capsys, tmp_path):
        # (Z/2)^6 has 64 classes, over the class limit; Dixon would take
        # seconds in the characteristic polynomials alone
        gens = []
        for i in range(6):
            imgs = list(range(1, 13))
            imgs[2 * i], imgs[2 * i + 1] = imgs[2 * i + 1], imgs[2 * i]
            gens.append(imgs)
        path = write_json(tmp_path, "z2_6.json", {"generators": gens})
        refused_quickly(capsys, ["--json", "chartab", "--group", path], "64 classes")

    def test_swapped_power_table_exits_2(self, capsys, s3_group, monkeypatch):
        # S3's 3-cycle row with rep^0 and rep^1 swapped: Dixon's lift
        # finds a multiplicity past the degree, a fault and not bad input
        corrupt_power_tables(monkeypatch, [((2, 0), (2, 1))])
        code = main(["--json", "chartab", "--group", s3_group])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "internal error: eigenvalue multiplicity" in captured.err


class TestCohomology:
    def test_swap_module_trivial_h2(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "mod.json",
            {
                "group": {"degree": 2, "generators": [[2, 1]]},
                "shape": [2, 2],
                "action": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            },
        )
        code, out = run(capsys, ["--json", "cohomology", "--module", path])
        assert code == 0
        data = json.loads(out)
        assert data["invariants"] == []
        assert data["order_H2"] == 1

    def test_trivial_z2_module_and_cocycle_class(self, capsys, tmp_path):
        mod = write_json(
            tmp_path,
            "mod.json",
            {
                "group": {"degree": 2, "generators": [[2, 1]]},
                "shape": [2],
                "action": [[[1]], [[1]]],
            },
        )
        # beta(x, x) = 1 is the class of Z/4 over Z/2
        coc = write_json(tmp_path, "coc.json", {"table": [[[0], [0]], [[0], [1]]]})
        code, out = run(capsys, ["--json", "cohomology", "--module", mod, "--cocycle", coc])
        assert code == 0
        data = json.loads(out)
        assert data["invariants"] == [2]
        assert data["class"] == [1]

    def test_wrong_matrix_shape(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "mod.json",
            {
                "group": {"degree": 2, "generators": [[2, 1]]},
                "shape": [2],
                "action": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
            },
        )
        code, _ = run(capsys, ["cohomology", "--module", path])
        assert code == 1

    def test_s7_module_refused_before_its_table(self, capsys, tmp_path):
        s7 = {"generators": [[2, 1, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 1]]}
        doc = {"group": s7, "shape": [2], "action": [[[1]]] * 5040}
        path = write_json(tmp_path, "s7.json", doc)
        argv = ["--json", "cohomology", "--module", path]
        refused_quickly(capsys, argv, "|H|*|M| > 4096")

    def test_c17_at_the_lattice_limit(self, capsys, tmp_path):
        # C17 acting trivially on Z/2: one generator, so Hom_H(R-bar, M)
        # has one unknown, while its 2-cochains have dimension
        # (17-1)^2 * 1 = 256, exactly the limit of the coboundary solve (Q8
        # on (Z/2)^9 at 441 is refused there, in TestRelmod);
        # H^2 = Z/gcd(17, 2) = 0
        c17 = {"generators": [list(range(2, 18)) + [1]]}
        doc = {"group": c17, "shape": [2], "action": [[[1]]] * 17}
        path = write_json(tmp_path, "c17.json", doc)
        code, out = run(capsys, ["--json", "cohomology", "--module", path])
        assert code == 0
        data = json.loads(out)
        assert data["invariants"] == [] and data["order_H2"] == 1


class TestRelmod:
    def test_z3_rank2(self, capsys, tmp_path):
        path = write_json(tmp_path, "z3.json", {"generators": [[2, 3, 1]]})
        code, out = run(capsys, ["--json", "relmod", "--group", path, "--rank", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 4
        # trivial + (d-1) * regular for d = 2
        assert data["character"] == [2, 1, 1]

    def test_verify_main(self, capsys, tmp_path, monkeypatch):
        # verify_main_theorem reuses the cocycle and H2Data of the printed class
        calls = {"h2": 0, "extension_cocycle": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        h2 = counted("h2", belyilab.cohomology.h2)
        monkeypatch.setattr(belyilab.cohomology, "h2", h2)
        monkeypatch.setattr(belyilab.relmod, "h2", h2)
        monkeypatch.setattr(
            belyilab.relmod,
            "extension_cocycle",
            counted("extension_cocycle", belyilab.relmod.extension_cocycle),
        )
        path = write_json(tmp_path, "z2.json", {"generators": [[2, 1]]})
        code, out = run(
            capsys,
            ["--json", "relmod", "--group", path, "--rank", "2", "--mod", "2", "--verify-main"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["verify_main"]["equal"] is True
        assert data["verify_main"]["stabilizer_count"] == data["verify_main"]["restriction_count"]
        assert calls == {"h2": 1, "extension_cocycle": 1}

    def test_rank_too_small(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "s3.json", {"generators": [[2, 1, 3], [2, 3, 1]]}
        )
        code, _ = run(capsys, ["relmod", "--group", path, "--rank", "1"])
        assert code == 1

    def test_verify_main_requires_mod(self, capsys, tmp_path):
        path = write_json(tmp_path, "z3.json", {"generators": [[2, 3, 1]]})
        code, _ = run(capsys, ["relmod", "--group", path, "--rank", "2", "--verify-main"])
        assert code == 1

    def test_q8_mod2_runs_past_the_cochain_limit(self, capsys, tmp_path):
        # |H|*|M| = 8 * 2^9 passes the size limit; h2 has 81 unknowns in
        # Hom_H(R-bar, M), so it runs at once, but the main-theorem check
        # solves on 2-cochains of dimension (8-1)^2 * 9 = 441 and is refused
        # before anything is built
        q8 = {"degree": 8, "generators": [[2, 3, 4, 1, 6, 7, 8, 5], [5, 8, 7, 6, 3, 2, 1, 4]]}
        path = write_json(tmp_path, "q8.json", q8)
        argv = ["--json", "relmod", "--group", path, "--rank", "2", "--mod", "2"]
        start = time.perf_counter()
        code, out = run(capsys, argv)
        assert code == 0 and time.perf_counter() - start < 1.0
        assert json.loads(out)["h2_invariants"] == [2]
        refused_quickly(capsys, argv + ["--verify-main"], "2-cochain dimension 441 > 256")

    def test_h2_unknowns_too_large(self, capsys, tmp_path):
        # (Z/2)^7 acting trivially on Z/2: |H|*|M| = 256, but the
        # presentation by 7 generators has rank 128 * 6 + 1 = 769, so
        # Hom_H(R-bar, M) has 769 unknowns, over the limit of 512
        gens = [
            [p + 1 if p // 2 != i else (p ^ 1) + 1 for p in range(14)] for i in range(7)
        ]
        doc = {"group": {"generators": gens}, "shape": [2], "action": [[[1]]] * 128}
        path = write_json(tmp_path, "c2_7.json", doc)
        argv = ["--json", "cohomology", "--module", path]
        refused_quickly(capsys, argv, "769 unknowns in Hom_H(R-bar, M) > 512")

    def test_verify_main_past_the_old_limit(self, capsys, tmp_path):
        # S3 at rank 2, m = 2: |P| = 768, read off the derivation image
        path = write_json(tmp_path, "s3.json", {"generators": [[2, 1, 3], [2, 3, 1]]})
        argv = ["--json", "relmod", "--group", path, "--rank", "2", "--mod", "2", "--verify-main"]
        start = time.perf_counter()
        code, out = run(capsys, argv)
        assert code == 0 and time.perf_counter() - start < 3.0
        report = json.loads(out)["verify_main"]
        assert report["equal"] is True and report["order_P"] == 768

    def test_verify_main_refuses_a_large_endomorphism_ring(self, capsys, tmp_path):
        # trivial H at rank 3, m = 4: End_H(R-bar/4) is all 4^9 matrices
        path = write_json(tmp_path, "trivial.json", {"generators": [[1]]})
        argv = ["--json", "relmod", "--group", path, "--rank", "3", "--mod", "4", "--verify-main"]
        refused_quickly(capsys, argv, "too large for automorphism enumeration")

    def test_verify_main_mismatch_exits_2(self, capsys, tmp_path, monkeypatch):
        # a lost derivation generator shrinks the restrictions below the
        # stabilizer: a fault of the program, reported on stderr only
        replace_last_derivation(monkeypatch, zero_matrix)
        path = write_json(tmp_path, "z2.json", {"generators": [[2, 1]]})
        argv = ["--json", "relmod", "--group", path, "--rank", "2", "--mod", "2", "--verify-main"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "main-theorem verification failed" in captured.err

    def test_s6_rank2_refused_before_its_transversal(self, capsys, tmp_path):
        # rank 721, so the conjugation action holds 720 * 721^2 = 3.7e8 integers
        s6 = {"generators": [[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]]}
        path = write_json(tmp_path, "s6.json", s6)
        argv = ["--json", "relmod", "--group", path, "--rank", "2"]
        refused_quickly(capsys, argv, "relation module too large")

    def test_order_4097_refused_before_its_elements(self, capsys, tmp_path):
        # Z/4097, a 17-cycle times a 241-cycle on 258 points, at rank 1:
        # the action bound admits it, and the order bound refuses it
        # before the group is enumerated
        g = list(range(2, 18)) + [1] + list(range(19, 259)) + [18]
        path = write_json(tmp_path, "z4097.json", {"generators": [g]})
        argv = ["--json", "relmod", "--group", path, "--rank", "1"]
        refused_quickly(capsys, argv, "group of order 4097 is too large for a relation module")

    @pytest.mark.parametrize("rank", [600, 5 * 10**6, 10**17, 10**19])
    def test_large_rank_refused_before_padding(self, capsys, tmp_path, rank):
        # Z/2 with rank d pads d - 1 identities; the bound on the action
        # is checked from |H| and d first, so no list of length d is built
        path = write_json(tmp_path, "z2.json", {"generators": [[2, 1]]})
        argv = ["--json", "relmod", "--group", path, "--rank", str(rank)]
        refused_quickly(capsys, argv, "relation module too large")


class TestGaschuetz:
    def test_z6_to_z3(self, capsys, tmp_path):
        g1 = write_json(tmp_path, "z6.json", {"generators": [[2, 3, 4, 5, 6, 1]]})
        g2 = write_json(tmp_path, "z3.json", {"generators": [[2, 3, 1]]})
        psi = write_json(tmp_path, "psi.json", [[2, 3, 1]])
        tup = write_json(tmp_path, "tup.json", [[2, 3, 1]])
        code, out = run(
            capsys,
            ["--json", "gaschuetz", "lift", "--g1", g1, "--g2", g2, "--psi", psi, "--tuple", tup],
        )
        assert code == 0
        data = json.loads(out)
        assert data["lift"] == [[2, 3, 4, 5, 6, 1]]
        assert data["count"] == 1

    def test_short_tuple(self, capsys, tmp_path):
        g1 = write_json(
            tmp_path, "v4.json", {"generators": [[2, 1, 4, 3], [3, 4, 1, 2]]}
        )
        g2 = write_json(tmp_path, "z2.json", {"generators": [[2, 1]]})
        psi = write_json(tmp_path, "psi.json", [[2, 1], [2, 1]])
        tup = write_json(tmp_path, "tup.json", [[2, 1]])
        code, _ = run(
            capsys,
            ["gaschuetz", "lift", "--g1", g1, "--g2", g2, "--psi", psi, "--tuple", tup],
        )
        assert code == 1

    @pytest.mark.parametrize(
        "g1_gens, psi_images",
        [
            # the identity listed as a generator, sent to a 3-cycle
            ([[2, 3, 1], [1, 2, 3]], [[2, 3, 1], [3, 1, 2]]),
            # one generator listed twice, with two different images
            ([[2, 3, 1], [2, 3, 1]], [[1, 2, 3], [2, 3, 1]]),
            ([[2, 3, 1], [2, 3, 1]], [[2, 3, 1], [1, 2, 3]]),
        ],
    )
    def test_psi_pair_that_does_not_hold(self, capsys, tmp_path, g1_gens, psi_images):
        g1 = write_json(tmp_path, "g1.json", {"generators": g1_gens})
        g2 = write_json(tmp_path, "z3.json", {"generators": [[2, 3, 1]]})
        psi = write_json(tmp_path, "psi.json", psi_images)
        tup = write_json(tmp_path, "tup.json", [[2, 3, 1]])
        argv = ["--json", "gaschuetz", "lift", "--g1", g1, "--g2", g2, "--psi", psi]
        refused_quickly(capsys, argv + ["--tuple", tup], "psi does not extend")

    def test_count_search_refused(self, capsys, tmp_path):
        # S4 onto the trivial group over six identities: 24^6 tuples
        g1 = write_json(tmp_path, "s4.json", {"generators": [[2, 1, 3, 4], [2, 3, 4, 1]]})
        g2 = write_json(tmp_path, "one.json", {"generators": [[1, 2, 3, 4]]})
        psi = write_json(tmp_path, "psi.json", [[1, 2, 3, 4]] * 2)
        tup = write_json(tmp_path, "tup.json", [[1, 2, 3, 4]] * 6)
        argv = ["--json", "gaschuetz", "lift", "--g1", g1, "--g2", g2, "--psi", psi]
        refused_quickly(capsys, argv + ["--tuple", tup], "lift count search too large")

    def test_s8_refused_before_its_table(self, capsys, tmp_path):
        # S8 onto Z/2 by the sign: a table of S8 would hold 1.6e9 entries
        s8 = {"generators": [[2, 1, 3, 4, 5, 6, 7, 8], [2, 3, 4, 5, 6, 7, 8, 1]]}
        g1 = write_json(tmp_path, "s8.json", s8)
        g2 = write_json(tmp_path, "z2.json", {"generators": [[2, 1]]})
        psi = write_json(tmp_path, "psi.json", [[2, 1], [2, 1]])
        tup = write_json(tmp_path, "tup.json", [[2, 1]])
        argv = ["--json", "gaschuetz", "lift", "--g1", g1, "--g2", g2, "--psi", psi]
        refused_quickly(capsys, argv + ["--tuple", tup], "group of order 40320 is too large")

    @staticmethod
    def transpositions(k):
        """The generators (1 2), (3 4), ..., (2k-1 2k) of (Z/2)^k."""
        gens = []
        for i in range(k):
            images = list(range(1, 2 * k + 1))
            images[2 * i], images[2 * i + 1] = 2 * i + 2, 2 * i + 1
            gens.append(images)
        return gens

    def test_lift_search_refused_before_it_runs(self, capsys, tmp_path):
        # (Z/2)^5 onto the trivial group over five identities: 32^5 tuples
        # in the fibers, refused before lift_generators searches them
        g1 = write_json(tmp_path, "g1.json", {"generators": self.transpositions(5)})
        g2 = write_json(tmp_path, "one.json", {"generators": [[1]]})
        psi = write_json(tmp_path, "psi.json", [[1]] * 5)
        tup = write_json(tmp_path, "tup.json", [[1]] * 5)
        argv = ["--json", "gaschuetz", "lift", "--g1", g1, "--g2", g2, "--psi", psi]
        refused_quickly(capsys, argv + ["--tuple", tup], "lift count search too large")

    def test_tuple_below_minimal_generator_number(self, capsys, tmp_path):
        # (Z/2)^6 onto (Z/2)^5 over a 5-tuple: d(G1) = 6, so the 2^5 tuples
        # of the fibers hold no lift; the 64^5 5-tuples of G1 are not walked
        g1 = write_json(tmp_path, "g1.json", {"generators": self.transpositions(6)})
        g2_gens = self.transpositions(5)
        g2 = write_json(tmp_path, "g2.json", {"generators": g2_gens})
        psi = write_json(tmp_path, "psi.json", g2_gens + [list(range(1, 11))])
        tup = write_json(tmp_path, "tup.json", g2_gens)
        argv = ["--json", "gaschuetz", "lift", "--g1", g1, "--g2", g2, "--psi", psi]
        refused_quickly(capsys, argv + ["--tuple", tup], "below the minimal generator number")


class TestGenus1:
    def test_triples(self, capsys):
        code, out = run(capsys, ["--json", "genus1", "triples"])
        assert code == 0
        assert json.loads(out)["triples"] == [[6, 3, 2], [4, 4, 2], [3, 3, 3]]

    def test_kummer(self, capsys):
        code, out = run(capsys, ["--json", "genus1", "kummer", "1", "2", "6"])
        assert code == 0
        data = json.loads(out)
        assert data["genus"] == 1
        assert data["inertia_orders"] == [6, 3, 2]

    def test_kummer_reducible(self, capsys):
        code, _ = run(capsys, ["genus1", "kummer", "2", "2", "6"])
        assert code == 1

    def test_cm(self, capsys):
        code, out = run(capsys, ["--json", "genus1", "cm", "4", "2"])
        assert code == 0
        assert len(json.loads(out)["stable_subgroups"]) == 3

    def test_cm_level_over_limit_refused(self, capsys):
        # the stable-subgroup search alone would span every subgroup of
        # (Z/1440)^2
        refused_quickly(capsys, ["--json", "genus1", "cm", "4", "1440"], "exceeds the limit")

    def test_jdeg(self, capsys):
        code, out = run(capsys, ["--json", "genus1", "jdeg", "7"])
        assert code == 0
        assert json.loads(out)["degree"] == 3

    def test_jdeg_even_rejected(self, capsys):
        code, _ = run(capsys, ["genus1", "jdeg", "4"])
        assert code == 1

    def test_jdeg_level_over_limit_refused(self, capsys):
        # t = 3*5*7*11*13 would take seconds in the exact test
        refused_quickly(capsys, ["--json", "genus1", "jdeg", "15015"], "exceeds the limit")


class TestCorpus:
    def test_seed_reaches_run_corpus(self, capsys, monkeypatch):
        seeds = []

        def fake_run_corpus(seed):
            seeds.append(seed)
            return []

        monkeypatch.setattr(belyilab.corpus, "run_corpus", fake_run_corpus)
        assert run(capsys, ["--json", "corpus"])[0] == 0
        assert run(capsys, ["--seed", "7", "corpus"])[0] == 0
        assert seeds == [20259, 7]

    def test_failed_criterion_exits_2(self, capsys, monkeypatch):
        # the corpus inputs are built in: a failure is a fault of the program
        failing = {"criterion": 1, "pass": False, "description": "d", "detail": "x"}
        monkeypatch.setattr(belyilab.corpus, "run_corpus", lambda seed: [failing])
        code, out = run(capsys, ["--json", "corpus"])
        assert code == 2 and json.loads(out)["pass"] is False

    def test_cli_import_leaves_corpus_out(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(belyilab.__file__)))
        code = "import sys, belyilab.cli; print('belyilab.corpus' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "False"


# -- usage errors and a closed stdout exit 1 -------------------------------

USAGE_ERRORS = [
    ["analyze"],
    ["--json", "--text", "corpus"],
    ["genus1", "jdeg", "x"],
    ["no-such-command"],
]
USAGE_IDS = ["missing_input", "json_and_text", "jdeg_not_an_int", "unknown_command"]


def cli_process(argv, **kwargs):
    """A `python -m belyilab.cli` process on argv."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(belyilab.__file__)))
    return subprocess.Popen([sys.executable, "-m", "belyilab.cli"] + argv, env=env, **kwargs)


class TestExitStatus:
    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=USAGE_IDS)
    def test_usage_error_in_process(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=USAGE_IDS)
    def test_usage_error_in_a_process(self, argv):
        proc = cli_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate()
        assert proc.returncode == 1
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: belyilab" in capsys.readouterr().out

    def test_closed_stdout_exits_1(self, s3_group):
        # the read end is closed before the child writes, so its output
        # always meets a broken pipe
        proc = cli_process(
            ["--json", "chartab", "--group", s3_group],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == ""


# -- malformed input: exit 0 or 1, never a traceback ------------------------

_KEYS = ["x", "y", "degree", "galois", "generators", "group", "shape", "action", "table"]
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats(-2, 5, allow_nan=False)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=10,
)
_perm_like = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.lists(st.integers(-1, 5), max_size=5),
    _json,
)
_covers = _json | st.fixed_dictionaries(
    {"x": _perm_like, "y": _perm_like},
    optional={"degree": st.integers(0, 5) | _json, "galois": st.booleans()},
)
# groups of degree <= 3, so modules and relation modules stay small
_small_perm = st.integers(1, 3).flatmap(lambda n: st.permutations(list(range(1, n + 1))))
_groups = _json | st.fixed_dictionaries(
    {"generators": st.lists(_small_perm | _perm_like, max_size=2) | _json},
    optional={"degree": st.integers(0, 4) | _json},
)
_matrices = st.lists(st.lists(st.integers(-1, 2), max_size=2), max_size=2)
_modules = _json | st.fixed_dictionaries(
    {
        "group": _groups,
        "shape": st.lists(st.integers(-1, 3), max_size=2) | _json,
        "action": st.lists(_matrices | _json, max_size=6) | _json,
    }
)


def _run_files(argv, docs):
    """(exit code, stderr) of main on the documents, written to files."""
    with tempfile.TemporaryDirectory() as workdir:
        code, _, err = run_case(argv, docs, workdir)
    return code, err


# files that json.load refuses without a JSONDecodeError: bytes that are
# not UTF-8, an integer past Python's digit limit for int(), and nesting
# past the recursion limit
MALFORMED_FILES = {
    "not_utf8": b"\377",
    "long_integer": b"1" * 5000,
    "deep_nesting": b"[" * 100000 + b"]" * 100000,
}


def _assert_clean(code, err):
    assert code in (0, 1), err
    assert "Traceback" not in err and "internal error" not in err


class TestMalformedInput:
    @settings(max_examples=80, deadline=None)
    @given(doc=_covers, command=st.sampled_from(["analyze", "descend"]))
    def test_cover(self, doc, command):
        refine = ["--refine"] if command == "descend" else []
        _assert_clean(*_run_files(["--json", command] + refine + ["--input", "{c}"], {"c": doc}))

    @settings(max_examples=80, deadline=None)
    @given(doc=_groups, command=st.sampled_from(["chartab", "relmod"]))
    def test_group(self, doc, command):
        rank = ["--rank", "2"] if command == "relmod" else []
        _assert_clean(*_run_files(["--json", command, "--group", "{g}"] + rank, {"g": doc}))

    @settings(max_examples=80, deadline=None)
    @given(doc=_modules, cocycle=st.none() | _json)
    def test_module(self, doc, cocycle):
        argv = ["--json", "cohomology", "--module", "{m}"]
        docs = {"m": doc}
        if cocycle is not None:
            argv += ["--cocycle", "{c}"]
            docs["c"] = cocycle
        _assert_clean(*_run_files(argv, docs))

    @settings(max_examples=60, deadline=None)
    @given(
        g1=_groups,
        g2=_groups,
        psi=st.lists(_small_perm | _perm_like, max_size=2) | _json,
        tup=st.lists(_small_perm | _perm_like, max_size=2) | _json,
    )
    def test_gaschuetz(self, g1, g2, psi, tup):
        argv = ["gaschuetz", "lift", "--g1", "{a}", "--g2", "{b}", "--psi", "{p}", "--tuple", "{t}"]
        _assert_clean(*_run_files(argv, {"a": g1, "b": g2, "p": psi, "t": tup}))

    def test_int_action_entry(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "mod.json",
            {"group": {"generators": [[2, 1]]}, "shape": [2], "action": [[[1]], 7]},
        )
        code = main(["cohomology", "--module", path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("data", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
    def test_unreadable_json(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code = main(["--json", "analyze", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: malformed JSON in %s: " % path)

    @pytest.mark.parametrize("data", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
    def test_unreadable_json_in_a_process(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        proc = cli_process(
            ["--json", "analyze", "--input", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        out, err = proc.communicate()
        assert proc.returncode == 1 and out == ""
        assert err.startswith("error: malformed JSON in ")

    def test_truncated_json_names_line_and_column(self, capsys, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"x": [2, 1],\n "y": ')
        code = main(["analyze", "--input", str(path)])
        assert code == 1
        assert capsys.readouterr().err == "error: malformed JSON in %s at line 2 column 7\n" % path

    def test_bug_exits_2_with_traceback(self, capsys, cubic, monkeypatch):
        def broken(cover):
            raise TypeError("a bug")

        monkeypatch.setattr("belyilab.cover.analysis_report", broken)
        code = main(["analyze", "--input", cubic])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" in err and not err.startswith("error:")
