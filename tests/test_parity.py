"""The parity script (tests/parity.py) on a two-command list, against copies
of this tree's legdet changed by one output byte or by one exit code."""

import shutil

import parity

CASES = [
    parity.Case(("compute", "--prime", "13", "--what", "dp")),
    parity.Case(("verify", "--prime", "13", "--suite", "T13_DPMOD4")),
]


def _copy(tmp_path, old, new):
    """A src tree holding a copy of legdet whose cli.py has old replaced by new."""
    src = tmp_path / "src"
    shutil.copytree(parity.SRC / "legdet", src / "legdet", ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "legdet" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count(old) == 1
    cli.write_text(text.replace(old, new), encoding="utf-8")
    return src


def _compare(src):
    lines = []
    return parity.compare(src, CASES, echo=lines.append), lines


def test_parity_reports_an_output_one_byte_apart(tmp_path):
    code, lines = _compare(_copy(tmp_path, "{'PASS' if r.passed", "{'PASs' if r.passed"))
    assert code == 1
    assert lines[0].startswith("same ") and lines[1].startswith("DIFF stdout ")
    assert lines[1].endswith("verify --prime 13 --suite T13_DPMOD4")
    assert lines[2].startswith("1 of 2 the same")


def test_parity_reports_an_exit_code_apart(tmp_path):
    code, lines = _compare(_copy(tmp_path, "    return EXIT_OK\n\n\ndef _cmd_verify", "    return 4\n\n\ndef _cmd_verify"))
    assert code == 1
    assert lines[0].startswith("DIFF exit 4 != 0 ") and lines[1].startswith("same ")


def test_parity_masks_timings_and_finds_an_unchanged_copy_the_same(tmp_path):
    # verify's text output prints per-check times, which differ run to run
    code, lines = _compare(_copy(tmp_path, "EXIT_OK = 0", "EXIT_OK = 0"))
    assert code == 0 and lines[-1].startswith("2 of 2 the same")
