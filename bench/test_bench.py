"""Self-tests of the benchmark: python3 -m pytest bench -q

They run every workload at smoke size, check the emitted metrics against
BENCHMARK.json, and show that the oracles reject a corrupted output.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.use_sources()


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py"] + list(args),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_untraced_run_does_not_import_tracer():
    code = (
        "import sys; sys.path.insert(0, 'bench'); import run; "
        "run.main(['--workload', 'algebra', '--seed', '1', '--seconds', '0.2']); "
        "assert 'tracer' not in sys.modules, 'untraced run imported the tracer'"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_corrupted_n_V_is_counted_as_failed(monkeypatch):
    import belyilab.descent
    from wl_covers import Covers

    rows = belyilab.descent.criterion_rows

    def corrupted(*args, **kwargs):
        out = rows(*args, **kwargs)
        out[-1]["n_V"] += 1
        return out

    monkeypatch.setattr(belyilab.descent, "criterion_rows", corrupted)
    workload = Covers(seed=3)
    latencies, _, results, _ = run.measure(workload, 0.3)
    warm_ok, failed, messages = run.check_all(workload, results)
    assert not warm_ok
    assert failed == len(latencies) > 0
    assert messages


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "covers", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
