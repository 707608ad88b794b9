"""Golden payloads: CLI envelopes pinned byte for byte across commits.

Each case runs `covdev.cli.main` on a small fixed input, removes the
envelope's timestamp line and hashes the rest with SHA-256.  The expected
hashes live in `tests/data/golden_payloads.json`.  A refactor that must not
change any output keeps them; a change that means to alter a payload
regenerates the file, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_payloads.json

and says why in its change log.  Float payloads go through numpy's BLAS, so
the hashes pin one numpy/BLAS build.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from covdev.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_payloads.json"
TIMESTAMP_LINE = re.compile(r'^  "timestamp": "[^"\n]*",\n', re.M)

FILES = {
    "float.csv": "0.5,1.25,0.0\n2.0,0.75,1.5\n0.125,3.0,0.25\n",
    "ratio.csv": "1/2,3,2/3\n5/4,0,7\n1,1/3,2\n",
    "ratio4.csv": "1/2,3,2/3,1\n5/4,1,7,1/5\n",
    "float2.csv": "0.1,0.2\n0.3,0.7\n",
    "tall.csv": "1/2,3,2/3\n5/4,1,7\n1,1/3,2\n3/2,2/5,1\n4,1/4,5/3\n2/7,6,1/2\n1,5/2,3/4\n7/3,1,1/6\n",
    "mixed.json": '{"d": 2, "n": 3, "entries": [[1, "1/3", 0.25], [0, 2, "7"]]}',
}

CASES = {
    "params_float_csv": ("params", "--profile", "@float.csv", "--p", "2,4,6"),
    "params_ratio_csv": ("params", "--profile", "@ratio.csv", "--p", "2,4"),
    "params_mixed_json": ("params", "--profile", "@mixed.json", "--p", "2"),
    "params_iid_columns": ("params", "--family", "iid_columns", "--d", "3", "--n", "2", "--b", "1,2,3"),
    "bounds_constant": ("bounds", "--family", "constant", "--d", "7", "--n", "5", "--p", "2,4"),
    "bounds_rank_one": ("bounds", "--family", "rank_one", "--d", "3", "--n", "4",
                        "--a", "1,2,1/2", "--b", "3,1/3,2,1", "--p", "2,4", "--epsilon", "0.3"),
    "bounds_iid_rows": ("bounds", "--family", "iid_rows", "--d", "3", "--n", "4",
                        "--b", "0.5,1.5,2,1", "--p", "2", "--log-floor"),
    "bounds_exact_file": ("bounds", "--profile", "@ratio4.csv", "--p", "2,4,6"),
    "examples_constant": ("examples", "--family", "constant", "--grid", "3x5,6x4", "--seed", "2"),
    "examples_iid_columns": ("examples", "--family", "iid_columns", "--grid", "3x5,6x4", "--seed", "7"),
    "examples_iid_rows": ("examples", "--family", "iid_rows", "--grid", "3x5,6x4", "--seed", "11"),
    "examples_rank_one": ("examples", "--family", "rank_one", "--grid", "3x5,6x4,4x4", "--seed", "3"),
    "examples_bounded_ratio": ("examples", "--family", "bounded_ratio", "--grid", "3x5,6x4", "--seed", "5"),
    "params_bounded_ratio": ("params", "--family", "bounded_ratio", "--d", "3", "--n", "3", "--K", "2",
                             "--profile", "@ratio.csv"),
    "params_rank_one_past_int64": ("params", "--family", "rank_one", "--d", "2", "--n", "2",
                                   "--a", "4294967296,1", "--b", "4294967296,3"),
    "oracle_shape_sum": ("oracle", "--profile", "@ratio.csv", "--p", "2,4", "--shape-sum"),
    "oracle_shape_sum_float": ("oracle", "--profile", "@float2.csv", "--p", "6", "--shape-sum"),
    "shapes_p4": ("shapes", "--p", "4", "--profile", "@ratio.csv"),
    "shapes_p6_ratio": ("shapes", "--p", "6", "--profile", "@ratio.csv"),
    "shapes_p4_float": ("shapes", "--p", "4", "--profile", "@float.csv"),
    "shapes_p6_tall": ("shapes", "--p", "6", "--profile", "@tall.csv"),
    "verify_3x1_p6": ("verify", "--d", "3", "--n", "1", "--pmax", "6", "--profiles", "40", "--seed", "3"),
}


def envelope_sha256(argv, workdir: Path) -> str:
    """SHA-256 of the envelope `main(argv)` prints, timestamp line removed."""
    for name, text in FILES.items():
        (workdir / name).write_text(text)
    args = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(args)
    assert status == 0, out.getvalue()
    return hashlib.sha256(TIMESTAMP_LINE.sub("", out.getvalue()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_payload(case, tmp_path):
    assert envelope_sha256(CASES[case], tmp_path) == json.loads(GOLDEN.read_text())[case]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {case: envelope_sha256(CASES[case], Path(tmp)) for case in sorted(CASES)}
    sys.stdout.write(json.dumps(hashes, indent=2) + "\n")
