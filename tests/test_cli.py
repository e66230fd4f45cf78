import json

import pytest

from belyilab.cli import main
from belyilab.cover import BelyiCover
from belyilab.permgroup import Permutation


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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


class TestLargeGroups:
    S12 = {"x": [2, 1] + list(range(3, 13)), "y": list(range(2, 13)) + [1]}

    def test_galois_s12_rejected_before_enumeration(self, capsys, tmp_path):
        path = write_json(tmp_path, "s12g.json", dict(self.S12, galois=True))
        code = main(["analyze", "--input", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

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

    def test_bad_group(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", {"generators": []})
        code, _ = run(capsys, ["chartab", "--group", path])
        assert code == 1


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


class TestRelmod:
    def test_z3_rank2(self, capsys, tmp_path):
        path = write_json(tmp_path, "z3.json", {"generators": [[2, 3, 1]]})
        code, out = run(capsys, ["--json", "relmod", "--group", path, "--rank", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 4
        # trivial + (d-1) * regular for d = 2
        assert data["character"] == [2, 1, 1]

    def test_verify_main(self, capsys, tmp_path):
        path = write_json(tmp_path, "z2.json", {"generators": [[2, 1]]})
        code, out = run(
            capsys,
            ["--json", "relmod", "--group", path, "--rank", "2", "--mod", "2", "--verify-main"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["verify_main"]["equal"] is True
        assert data["verify_main"]["stabilizer_count"] == data["verify_main"]["restriction_count"]

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

    def test_jdeg(self, capsys):
        code, out = run(capsys, ["--json", "genus1", "jdeg", "7"])
        assert code == 0
        assert json.loads(out)["degree"] == 3

    def test_jdeg_even_rejected(self, capsys):
        code, _ = run(capsys, ["genus1", "jdeg", "4"])
        assert code == 1
