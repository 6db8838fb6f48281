import json
import time

import oracles
from legdet.cli import CSV_HEADER, main
from legdet.ntheory import primes_in_range
from legdet.verify import CheckId


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_dp(capsys):
    code, out, _ = run(capsys, "compute", "--prime", "47", "--what", "dp")
    assert code == 0 and out.strip() == "13"


def test_compute_multiple_fields(capsys):
    code, out, _ = run(capsys, "compute", "--prime", "5", "--what", "det-aminus,unit")
    assert code == 0
    assert out.splitlines() == ["-5", "(1+1√5)/2"]


def test_compute_qp_rational(capsys):
    code, out, _ = run(capsys, "compute", "--prime", "7", "--what", "qp")
    assert code == 0 and out.strip() == "1/1"


def test_compute_json(capsys):
    code, out, _ = run(
        capsys, "compute", "--prime", "5", "--what", "charpoly-aminus,dp", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"charpoly-aminus": ["-5", "0", "1"], "dp": "-2"}


def test_compute_unknown_field_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--prime", "7", "--what", "nope")
    assert code == 2 and "unknown field" in err


def test_compute_residue_mismatch_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--prime", "13", "--what", "hneg")
    assert code == 2 and "3 (mod 4)" in err
    code, _, err = run(capsys, "compute", "--prime", "7", "--what", "unit")
    assert code == 2 and "1 (mod 4)" in err


def test_compute_hneg_wrong_class_message(capsys):
    for p in (3, 13):
        code, out, err = run(capsys, "compute", "--prime", str(p), "--what", "dp,hneg")
        assert code == 2 and out == ""
        assert err == f"error: h(-p) requires a prime p ≡ 3 (mod 4) with p > 3, got {p}\n"


def test_compute_reads_one_invariant_record(capsys, monkeypatch):
    import legdet.cli as cli

    calls = []
    real = cli.prime_invariants
    monkeypatch.setattr(cli, "prime_invariants", lambda p: calls.append(p) or real(p))
    code, out, _ = run(
        capsys, "compute", "--prime", "1019", "--what", "dp,cp,qp,hneg", "--json"
    )
    assert code == 0 and calls == [1019]
    _, _, c_p, d_p, h_neg, q_p, _, _ = oracles.prime_invariants_by_counting(1019)
    assert json.loads(out) == {
        "dp": str(d_p), "cp": str(c_p), "qp": f"{q_p.numerator}/{q_p.denominator}",
        "hneg": str(h_neg),
    }
    calls.clear()
    code, _, _ = run(capsys, "compute", "--prime", "13", "--what", "unit,hreal")
    assert code == 0 and calls == []


def test_compute_unit_at_1mod8_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "compute", "--prime", "2017", "--what", "unit")
    assert time.perf_counter() - start < 0.5
    assert code == 0 and out.endswith("√2017)/2\n")


def test_charpoly_alias(capsys):
    code, out, _ = run(capsys, "charpoly", "--prime", "5")
    assert code == 0
    assert out.splitlines() == ["x^2 - 1", "x^2 - 5"]


def test_verify_rejects_composite(capsys):
    code, _, err = run(capsys, "verify", "--prime", "10", "--suite", "all")
    assert code == 2 and "10 is not an odd prime" in err


def test_verify_single_prime_all(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "13", "--suite", "all")
    assert code == 0
    assert "summary:" in out and " 0 failed" in out


def test_verify_range_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--from", "3", "--to", "200", "--suite", "T13_DPMOD4"
    )
    assert code == 0
    assert out.count("PASS T13_DPMOD4") == len(primes_in_range(3, 200))


def test_verify_strict_single_check_wrong_class(capsys):
    code, _, err = run(capsys, "verify", "--prime", "13", "--suite", "T11_DET_3MOD4")
    assert code == 2 and "3 (mod 4)" in err


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--prime", "7", "--suite", "T13_DPMOD4,MORDELL", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"passed": 2, "failed": 0, "skipped": 0}
    assert {r["id"] for r in payload["results"]} == {"T13_DPMOD4", "MORDELL"}


def test_verify_needs_prime_or_range(capsys):
    code, _, err = run(capsys, "verify", "--suite", "all")
    assert code == 2 and "--prime" in err


def test_scan_writes_one_record_per_prime(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code, _, _ = run(
        capsys, "scan", "--from", "3", "--to", "1000", "--ids", "CONJ11_DP",
        "--out", str(out), "--jobs", "1",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == len(primes_in_range(3, 1000))
    first = json.loads(lines[0])
    assert first["schema_version"] == 1 and first["p"] == 3
    assert first["checks"] == {}  # CONJ11_DP needs p > 3
    second = json.loads(lines[1])
    assert second["checks"]["CONJ11_DP"] == {"passed": True}
    assert set(second["invariants"]) == {
        "c_p", "d_p", "q_p_num", "q_p_den", "sum_half", "N",
    }
    seven = json.loads(lines[2])
    assert seven["invariants"]["h_neg"] == "1"


def test_scan_resume_idempotent(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code, s1, _ = run(
        capsys, "scan", "--from", "3", "--to", "300", "--ids", "T13_DPMOD4",
        "--out", str(out), "--jobs", "1", "--json",
    )
    body = out.read_bytes()
    code2, s2, _ = run(
        capsys, "scan", "--from", "3", "--to", "300", "--ids", "T13_DPMOD4",
        "--out", str(out), "--resume", "--jobs", "1", "--json",
    )
    assert code == code2 == 0
    assert out.read_bytes() == body
    a, b = json.loads(s1), json.loads(s2)
    assert b["new_records"] == 0
    for key in ("passed", "failed", "skipped"):
        assert a[key] == b[key]


def test_scan_resume_rejects_records_missing_a_requested_check(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(capsys, "scan", "--from", "3", "--to", "60", "--ids", "CONJ11_DP",
        "--out", str(out), "--jobs", "1")
    body = out.read_bytes()
    # p = 3 has no CONJ11_DP result, and needs none: resuming is fine
    code, _, _ = run(capsys, "scan", "--from", "3", "--to", "60", "--ids", "CONJ11_DP",
                     "--out", str(out), "--resume", "--jobs", "1")
    assert code == 0
    code, _, err = run(capsys, "scan", "--from", "3", "--to", "60", "--ids", "T13_DPMOD4",
                       "--out", str(out), "--resume", "--jobs", "1")
    assert code == 2
    assert "T13_DPMOD4" in err and "p=3" in err
    assert out.read_bytes() == body


def test_scan_resume_extension_equals_direct(tmp_path, capsys):
    partial = tmp_path / "a.jsonl"
    direct = tmp_path / "b.jsonl"
    run(capsys, "scan", "--from", "3", "--to", "100", "--ids", "T13_DPMOD4",
        "--out", str(partial), "--jobs", "1")
    run(capsys, "scan", "--from", "3", "--to", "200", "--ids", "T13_DPMOD4",
        "--out", str(partial), "--resume", "--jobs", "1")
    run(capsys, "scan", "--from", "3", "--to", "200", "--ids", "T13_DPMOD4",
        "--out", str(direct), "--jobs", "1")
    assert partial.read_bytes() == direct.read_bytes()


def test_scan_deterministic_across_jobs(tmp_path, capsys):
    one = tmp_path / "one.jsonl"
    two = tmp_path / "two.jsonl"
    run(capsys, "scan", "--from", "3", "--to", "400", "--ids",
        "T13_DPMOD4,EQ_DCOUNT", "--out", str(one), "--jobs", "1", "--seed", "5")
    run(capsys, "scan", "--from", "3", "--to", "400", "--ids",
        "T13_DPMOD4,EQ_DCOUNT", "--out", str(two), "--jobs", "2", "--seed", "5")
    assert one.read_bytes() == two.read_bytes()


def test_scan_csv_format(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "scan", "--from", "3", "--to", "50", "--ids", "T13_DPMOD4",
        "--format", "csv", "--out", str(out), "--jobs", "1",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER == "p,check,passed,d_p"
    assert lines[1] == "3,T13_DPMOD4,true,-1"
    assert len(lines) == 1 + len(primes_in_range(3, 50))


def test_scan_csv_resume_rejected(tmp_path, capsys):
    code, _, err = run(
        capsys, "scan", "--from", "3", "--to", "50", "--ids", "T13_DPMOD4",
        "--format", "csv", "--out", str(tmp_path / "r.csv"), "--resume",
    )
    assert code == 2 and "jsonl" in err


def test_scan_corrupt_resume_file(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(capsys, "scan", "--from", "3", "--to", "50", "--ids", "T13_DPMOD4",
        "--out", str(out), "--jobs", "1")
    with out.open("a") as fh:
        fh.write("{not json\n")
    code, _, err = run(
        capsys, "scan", "--from", "3", "--to", "100", "--ids", "T13_DPMOD4",
        "--out", str(out), "--resume", "--jobs", "1",
    )
    assert code == 3
    bad_line = len(primes_in_range(3, 50)) + 1  # corruption right after the records
    assert f"line {bad_line}" in err


def test_scan_invalid_range(capsys, tmp_path):
    code, _, err = run(
        capsys, "scan", "--from", "100", "--to", "3", "--ids", "T13_DPMOD4",
        "--out", str(tmp_path / "x.jsonl"),
    )
    assert code == 2


def test_scan_exit_code_4_on_conjecture_counterexample(tmp_path, capsys, monkeypatch):
    import legdet.verify as v

    broken = v._Spec("p > 3", lambda p: p > 3,
                     lambda p, s: (False, {"note": "synthetic counterexample"}),
                     "forced")
    monkeypatch.setitem(v._REGISTRY, CheckId.CONJ11_DP, broken)
    code, out, _ = run(
        capsys, "scan", "--from", "5", "--to", "20", "--ids", "CONJ11_DP",
        "--out", str(tmp_path / "c.jsonl"), "--jobs", "1",
    )
    assert code == 4
    assert "FAIL CONJ11_DP" in out


def test_scan_exit_code_1_on_proved_statement_failure(tmp_path, capsys, monkeypatch):
    import legdet.verify as v

    broken = v._Spec("any odd prime", lambda p: True,
                     lambda p, s: (False, {"note": "synthetic bug"}), "forced")
    monkeypatch.setitem(v._REGISTRY, CheckId.T13_DPMOD4, broken)
    code, _, _ = run(
        capsys, "scan", "--from", "5", "--to", "20", "--ids", "T13_DPMOD4",
        "--out", str(tmp_path / "t.jsonl"), "--jobs", "1",
    )
    assert code == 1


def test_usage_error_on_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
