"""CLI outputs compared byte for byte with committed golden files.

The files under tests/golden/ were written by the command lines below, run
with `python -m legdet.cli` from a source checkout, and are not edited by
hand.  A change that alters any of these outputs must say why and write the
files again.  The per-check timings of the text output are masked on both
sides; every other byte is compared.
"""

import re
from pathlib import Path

import pytest

from legdet.cli import main

GOLDEN = Path(__file__).parent / "golden"
_TIMING = re.compile(r"\([0-9.]+ ms\)$", re.MULTILINE)


def _mask(text: str) -> str:
    return _TIMING.sub("(<masked> ms)", text)


def _run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("verify", "--from", "3", "--to", "60", "--suite", "all", "--json"),
         "verify_3_60.json"),
        (("charpoly", "--prime", "101", "--json"), "charpoly_101.json"),
        (("compute", "--prime", "101", "--what",
          "dp,cp,qp,det-aplus,det-aminus,unit,hreal", "--json"), "compute_101.json"),
        (("verify", "--prime", "101"), "verify_101.txt"),
        (("verify", "--prime", "103", "--suite", "all", "--seed", "7", "--json"),
         "verify_103_all_s7.json"),
        (("verify", "--from", "61", "--to", "113", "--suite",
          "T12_I,T12_II,COR_AFTER_T12,EQ_38II_QP,SUN_C31_I,SUN_C31_II,T31_RANDOM,MDL_RANDOM",
          "--seed", "7", "--json"), "verify_61_113_closed_forms_s7.json"),
        (("charpoly", "--prime", "103", "--json"), "charpoly_103.json"),
        (("compute", "--prime", "103", "--what", "det-aplus,det-aminus,charpoly-aminus", "--json"),
         "compute_103.json"),
        (("verify", "--from", "3", "--to", "60", "--suite", "all"), "verify_3_60.txt"),
        (("verify", "--from", "24", "--to", "28", "--suite", "all", "--json"),
         "verify_24_28_all.json"),
        (("verify", "--prime", "7", "--suite", "T13_DPMOD4,T13_DPMOD4"), "verify_7_repeat.txt"),
    ],
)
def test_stdout_matches_golden(capsys, argv, golden):
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    assert _mask(_run(capsys, *argv)) == _mask(want)


def test_scan_records_and_summary_match_golden(capsys, tmp_path):
    out = tmp_path / "scan.jsonl"
    summary = _run(capsys, "scan", "--from", "3", "--to", "60", "--ids", "all",
                   "--jobs", "1", "--out", str(out), "--json")
    assert out.read_bytes() == (GOLDEN / "scan_3_60.jsonl").read_bytes()
    assert summary == (GOLDEN / "scan_3_60_summary.json").read_text(encoding="utf-8")
