"""Byte-identity of CLI outputs against tests/data/golden.json.

The golden file holds frozen `analyze`, `descend --refine`, `relmod`,
`chartab`, `cohomology`, `corpus`, `genus1` and `gaschuetz lift` outputs
(see make_golden.py); every case is recomputed in process here.  A refactor that must not change any output
keeps this test green without regenerating the file.
"""

import json
from pathlib import Path

import pytest

from make_golden import run_case

CASES = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, tmp_path):
    code, stdout, _ = run_case(case["argv"], case["inputs"], tmp_path)
    assert code == case["exit"]
    assert stdout == case["stdout"]
