import json
import sys
import time

import numpy as np
import oracles
import pytest
import legdet.charmat as charmat
from legdet.charmat import build
from legdet.cli import CSV_HEADER, main
from legdet.errors import InternalError
from legdet.exactla import charpoly, det
from legdet.ntheory import primes_in_range
from legdet.verify import CheckId


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _recording_det_many(batches):
    """A det_many that records each batch it is given, as rows, in `batches`."""
    import legdet.exactla as ex

    def det_many(ms, *args):
        ms = list(ms)
        batches.append([m.tolist() for m in ms])
        return ex.det_many(ms, *args)

    return det_many


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


@pytest.mark.parametrize("what", ["dp", "det-aplus"])
def test_compute_prime_too_large_for_a_table_usage_error(capsys, what):
    # the symbol table refuses p >= 2^31 before allocating it
    code, out, err = run(capsys, "compute", "--prime", "1000000000039", "--what", what)
    assert code == 2 and out == ""
    assert "too large" in err and "Traceback" not in err


def test_matrix_dimension_guard_is_a_pure_function_of_p():
    # the guard reads only p, so a huge p costs nothing to refuse
    import legdet.cli as cli
    from legdet.exactla import modulus_bits

    assert modulus_bits(cli.MATRIX_DIM_MAX) == 26 > modulus_bits(cli.MATRIX_DIM_MAX + 1)
    cli.require_matrix_prime(2 * cli.MATRIX_DIM_MAX + 1)
    for p in (2 * cli.MATRIX_DIM_MAX + 3, 10**100 + 267):
        with pytest.raises(ValueError, match="too large for a matrix field"):
            cli.require_matrix_prime(p)


@pytest.mark.parametrize("what", ["det-aplus", "det-aminus", "charpoly-aplus", "charpoly-aminus"])
def test_compute_matrix_field_just_above_the_dimension_limit(capsys, monkeypatch, fresh_caches, what):
    # p = 4099 gives n = 2049: refused before any matrix is built
    monkeypatch.setattr(charmat, "build", lambda *a: pytest.fail("built a matrix"))
    code, out, err = run(capsys, "compute", "--prime", "4099", "--what", f"dp,{what}")
    assert code == 2 and out == ""
    assert "n = (p-1)/2 = 2049 is above 2048" in err
    assert main(["charpoly", "--prime", "4099"]) == 2


def test_compute_validates_every_field_before_computing(capsys, monkeypatch, fresh_caches):
    calls = []
    monkeypatch.setattr(charmat, "charpoly", calls.append)
    code, out, err = run(capsys, "compute", "--prime", "419", "--what", "charpoly-aplus,nope")
    assert code == 2 and out == "" and "unknown field 'nope'" in err
    assert calls == []


def test_compute_refuses_the_real_quadratic_fields_before_computing(capsys, monkeypatch, fresh_caches):
    # 419 ≡ 3 (mod 4): hreal is refused before the charpoly or any invariant
    # is computed, with realquad's message
    monkeypatch.setattr(charmat, "charpoly", lambda *a: pytest.fail("computed a charpoly"))
    monkeypatch.setattr(charmat, "prime_invariants", lambda p: pytest.fail("computed the invariants"))
    for what in ("charpoly-aplus,hreal", "dp,unit"):
        code, out, err = run(capsys, "compute", "--prime", "419", "--what", what)
        assert code == 2 and out == ""
        assert err == "error: a prime p ≡ 1 (mod 4) is required, got 419\n"


def test_charpoly_takes_both_determinants_from_one_det_many_call(capsys, monkeypatch, fresh_caches):
    # legdet charpoly batches det(A+) and det(A-) and hands each to its
    # charpoly for the constant-term cross-check; a det field of a matrix
    # whose charpoly is also asked for adds nothing to the batch
    import legdet.exactla as ex

    batches, handed = [], []
    monkeypatch.setattr(charmat, "det_many", _recording_det_many(batches))
    monkeypatch.setattr(charmat, "charpoly", lambda m, d, *args: handed.append(d) or ex.charpoly(m, d, *args))
    code, out, _ = run(capsys, "charpoly", "--prime", "29", "--json")
    assert code == 0
    assert batches == [[build("aplus", 29).tolist(), build("aminus", 29).tolist()]]
    payload = json.loads(out)  # n = 14, so each constant term is the det
    assert handed == [int(payload[f"charpoly-{name}"][0]) for name in ("aplus", "aminus")]
    batches.clear()
    charmat.at.cache_clear()  # as in a new process
    code, out, _ = run(capsys, "compute", "--prime", "29", "--what", "det-aminus,charpoly-aminus,dp", "--json")
    assert code == 0 and batches == [[build("aminus", 29).tolist()]]
    assert json.loads(out)["det-aminus"] == json.loads(out)["charpoly-aminus"][0]


def _count_matrix_work(monkeypatch):
    """Patches charmat so that every det_many batch and every charpoly the
    record makes is recorded; returns (batches, charpolys)."""
    batches, polys = [], []
    real = charmat.charpoly
    monkeypatch.setattr(charmat, "det_many", _recording_det_many(batches))
    monkeypatch.setattr(charmat, "charpoly", lambda m, *a: polys.append(m) or real(m, *a))
    return batches, polys


@pytest.mark.parametrize("p, distinct", [(29, 2), (31, 1), (101, 2), (103, 1)])
def test_charpoly_computes_one_det_and_one_charpoly_per_distinct_matrix(capsys, monkeypatch, fresh_caches, p, distinct):
    # at p ≡ 3 (mod 4), A- = A+^T: det(A+) alone is batched, and one
    # charpoly serves both fields; at p ≡ 1 (mod 4) both are computed
    batches, polys = _count_matrix_work(monkeypatch)
    code, out, _ = run(capsys, "charpoly", "--prime", str(p), "--json")
    assert code == 0
    assert batches == [[build("aplus", p).tolist(), build("aminus", p).tolist()][:distinct]]
    assert len(polys) == distinct
    payload = json.loads(out)
    assert (payload["charpoly-aplus"] == payload["charpoly-aminus"]) == (distinct == 1)


@pytest.mark.parametrize("p, tamper, distinct", [
    # an entry of A- changed: no longer A+^T at p ≡ 3 (mod 4)
    (103, lambda m: np.vstack([m[0] + np.eye(1, len(m), dtype=m.dtype), m[1:]]), 2),
    # A- replaced by A+^T at p ≡ 1 (mod 4)
    (29, lambda m: build("aplus", 29).T, 1),
])
def test_transpose_reuse_is_gated_by_the_entries_not_by_p_mod_4(capsys, monkeypatch, fresh_caches, p, tamper, distinct):
    real_build = charmat.build
    monkeypatch.setattr(charmat, "build", lambda name, q: tamper(real_build(name, q)) if name == "aminus" else real_build(name, q))
    batches, polys = _count_matrix_work(monkeypatch)
    code, out, _ = run(capsys, "compute", "--prime", str(p), "--what", "det-aminus,charpoly-aplus,charpoly-aminus", "--json")
    assert code == 0 and len(batches) == 1 and len(batches[0]) == len(polys) == distinct
    aminus = tamper(real_build("aminus", p))
    payload = json.loads(out)
    assert payload["det-aminus"] == str(det(aminus))
    assert payload["charpoly-aminus"] == [str(c) for c in charpoly(aminus).coeffs]


def test_reused_aminus_matches_its_own_det_and_charpoly_to_199(capsys, monkeypatch, fresh_caches):
    # differential: at every p ≡ 3 (mod 4) up to 199, det(A-) and
    # charpoly(A-) taken from A+ equal those computed from A- itself, in
    # compute and in verify's T11_DET_3MOD4 alike
    batches, _ = _count_matrix_work(monkeypatch)
    for p in primes_in_range(3, 199):
        if p % 4 != 3:
            continue
        batches.clear()
        code, out, _ = run(capsys, "compute", "--prime", str(p), "--what",
                           "det-aplus,det-aminus,charpoly-aplus,charpoly-aminus", "--json")
        assert code == 0 and len(batches) == 1 and len(batches[0]) == 1, p
        aminus = build("aminus", p)
        payload = json.loads(out)
        d_minus = str(det(aminus))
        assert payload["det-aminus"] == d_minus, p
        assert payload["charpoly-aminus"] == [str(c) for c in charpoly(aminus).coeffs], p
        if p > 3:
            charmat.at.cache_clear()  # as in a new process
            code, out, _ = run(capsys, "verify", "--prime", str(p), "--suite", "T11_DET_3MOD4", "--json")
            [res] = json.loads(out)["results"]
            assert code == 0 and res["witness"]["det_aminus"] == d_minus, p


def test_out_of_memory_is_an_internal_error(capsys, monkeypatch, fresh_caches):
    # exit 1 means a proved statement failed; running out of memory is exit 3
    def exhausted(p):
        raise MemoryError

    monkeypatch.setattr(charmat, "prime_invariants", exhausted)
    code, out, err = run(capsys, "compute", "--prime", "7", "--what", "dp")
    assert (code, out) == (3, "")
    assert err == "internal error: out of memory\n"


def test_compute_empty_what_usage_error(capsys):
    for what in ("", ","):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "compute", "--prime", "7", "--what", what, *extra)
            assert code == 2 and out == "" and "--what names no field" in err


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


def test_compute_reads_one_invariant_record(capsys, monkeypatch, fresh_caches):
    calls = []
    real = charmat.prime_invariants
    monkeypatch.setattr(charmat, "prime_invariants", lambda p: calls.append(p) or real(p))
    code, out, _ = run(
        capsys, "compute", "--prime", "1019", "--what", "dp,cp,qp,hneg", "--json"
    )
    assert code == 0 and calls == [1019]
    _, _, c_p, d_p, h_neg, q_p, _ = oracles.prime_invariants_by_counting(1019)
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


def test_compute_unit_prints_beyond_the_int_digit_limit(capsys):
    # the unit at p = 10^9 + 9 has about 30,700 digits; --prime is still
    # parsed under the interpreter's limit, which main leaves as it found it
    p = 1000000009
    limit = sys.get_int_max_str_digits()
    texts = []
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "compute", "--prime", str(p), "--what", "unit", *extra)
        assert code == 0 and err == ""
        texts.append(json.loads(out)["unit"] if extra else out.strip())
    assert sys.get_int_max_str_digits() == limit
    code, _, _ = run(capsys, "compute", "--prime", "1" * (limit + 1), "--what", "unit")
    assert code == 2
    sys.set_int_max_str_digits(0)
    try:
        for text in texts:
            u, v = (int(t) for t in text.removeprefix("(").removesuffix(f"√{p})/2").split("+"))
            assert u * u - p * v * v == -4 and len(str(v)) > limit
    finally:
        sys.set_int_max_str_digits(limit)


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
    for form in ((), ("--json",)):
        code, out, err = run(capsys, "verify", "--prime", "13", "--suite", "T11_DET_3MOD4", *form)
        assert code == 2 and "3 (mod 4)" in err
        assert out == ""


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


@pytest.mark.parametrize("bounds", [("--from", "3", "--to", "200"), ("--from", "3"), ("--to", "200")])
def test_verify_prime_and_range_exclude_each_other(capsys, bounds):
    code, out, err = run(capsys, "verify", "--prime", "13", *bounds)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "--prime" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--from", "3", "--to", str(2**31)),
    ("verify", "--prime", "2147483659"),
    ("scan", "--from", "3", "--to", str(2**31), "--ids", "T13_DPMOD4"),
])
def test_range_above_the_table_limit_is_refused_before_sieving(capsys, monkeypatch, tmp_path, argv):
    import legdet.cli as cli
    import legdet.verify as v

    def sieve(lo, hi):
        raise AssertionError(f"sieved [{lo}, {hi}]")

    monkeypatch.setattr(v, "primes_in_range", sieve)
    monkeypatch.setattr(cli, "primes_in_range", sieve, raising=False)
    if argv[0] == "scan":
        argv += ("--out", str(tmp_path / "s.jsonl"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "2^31" in err and len(err.splitlines()) == 1


def test_verify_streams_each_prime_before_the_next(capsys, monkeypatch):
    # the first prime's line is on stdout before any check of the last prime
    import legdet.verify as v

    original, seen = v.check, []

    def check(cid, p=None, seed=0):
        if p == 29 and not seen:
            seen.append(capsys.readouterr().out)
        return original(cid, p, seed)

    monkeypatch.setattr(v, "check", check)
    code, out, _ = run(capsys, "verify", "--from", "3", "--to", "30", "--suite", "T13_DPMOD4,L41_SUMS")
    assert code == 0 and len(seen) == 1
    assert seen[0].startswith("PASS T13_DPMOD4 p=3 ")
    assert "p=29" not in seen[0] and out.startswith("PASS T13_DPMOD4 p=29 ")


@pytest.mark.parametrize("form", [(), ("--json",)])
def test_verify_internal_error_mid_range_keeps_the_finished_primes(capsys, monkeypatch, form):
    import legdet.verify as v

    original = v.check

    def check(cid, p=None, seed=0):
        if p == 7:  # the third prime
            raise InternalError("synthetic")
        return original(cid, p, seed)

    monkeypatch.setattr(v, "check", check)
    argv = ("verify", "--from", "3", "--to", "30", "--suite", "T13_DPMOD4,L41_SUMS", *form)
    code, out, err = run(capsys, *argv)
    assert code == 3 and err == "internal error: synthetic\n"
    if form:
        assert out.startswith('{"results": [') and not out.endswith("\n")
        assert [(r["id"], r["p"]) for r in json.loads(out + "]}")["results"]] == [
            ("T13_DPMOD4", 3), ("L41_SUMS", 3), ("T13_DPMOD4", 5), ("L41_SUMS", 5)]
    else:
        assert [line.split(" (")[0] for line in out.splitlines()] == [
            "PASS T13_DPMOD4 p=3", "PASS L41_SUMS p=3", "PASS T13_DPMOD4 p=5", "PASS L41_SUMS p=5"]


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


def test_scan_rejects_jobs_below_one(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    for jobs in ("0", "-2", "two"):
        code, _, err = run(capsys, "scan", "--from", "3", "--to", "50", "--ids",
                           "T13_DPMOD4", "--out", str(out), "--jobs", jobs)
        assert code == 2 and "--jobs" in err
    assert not out.exists()


def test_scan_unopenable_out_usage_error(tmp_path, capsys):
    scan = ("scan", "--from", "3", "--to", "20", "--ids", "T13_DPMOD4", "--jobs", "1")
    missing = tmp_path / "no" / "r.jsonl"
    code, out, err = run(capsys, *scan, "--out", str(missing))
    assert code == 2 and out == "" and f"cannot open --out '{missing}'" in err
    for extra in ((), ("--resume",)):  # a directory, with and without --resume
        code, out, err = run(capsys, *scan, "--out", str(tmp_path), *extra)
        assert code == 2 and out == "" and f"cannot open --out '{tmp_path}'" in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("checks", ['{"T13_DPMOD4":true}', '[]'])
def test_scan_resume_record_with_malformed_checks_is_corrupt(tmp_path, capsys, checks):
    out = tmp_path / "r.jsonl"
    out.write_text('{"schema_version":1,"p":3,"checks":%s}\n' % checks)
    code, _, err = run(capsys, "scan", "--from", "3", "--to", "5", "--ids", "T13_DPMOD4",
                       "--out", str(out), "--resume", "--jobs", "1")
    assert code == 3 and "line 1" in err


SCAN_3_60 = ("scan", "--from", "3", "--to", "60", "--ids", "T13_DPMOD4,CONJ11_DP",
             "--jobs", "1")


def test_scan_resume_recomputes_a_torn_last_line(tmp_path, capsys):
    direct, torn = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, *SCAN_3_60, "--out", str(direct))
    body = direct.read_bytes()
    torn.write_bytes(body[:-40])
    code, out, err = run(capsys, *SCAN_3_60, "--out", str(torn), "--resume", "--json")
    assert code == 0
    assert "torn line 16" in err
    assert json.loads(out)["new_records"] == 1
    assert torn.read_bytes() == body


def test_scan_resume_restores_a_lost_last_newline(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(capsys, *SCAN_3_60, "--out", str(out))
    body = out.read_bytes()
    out.write_bytes(body[:-1])
    code, _, err = run(capsys, *SCAN_3_60, "--out", str(out), "--resume")
    assert code == 0 and err == ""
    assert out.read_bytes() == body


def test_scan_resume_corrupt_line_before_a_torn_one(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(capsys, *SCAN_3_60, "--out", str(out))
    lines = out.read_bytes().split(b"\n")
    lines[2] = b"{not json"
    out.write_bytes(b"\n".join(lines)[:-40])
    code, _, err = run(capsys, *SCAN_3_60, "--out", str(out), "--resume")
    assert code == 3
    assert "line 3" in err


def test_scan_record_keeps_a_failed_checks_witness(tmp_path, capsys, monkeypatch):
    import legdet.verify as v

    def runner(p, s):
        if p != 11:
            return True, {"d_p": 0}
        return False, {"counterexample": {"p": p, "direct": 2**60}, "note": "synthetic"}

    monkeypatch.setitem(v._REGISTRY, CheckId.CONJ11_DP, v._Spec("p > 3", lambda p: p > 3, runner, "forced"))
    out = tmp_path / "c.jsonl"
    code, _, _ = run(capsys, "scan", "--from", "5", "--to", "13", "--ids", "CONJ11_DP",
                     "--out", str(out), "--jobs", "1")
    assert code == 4
    checks = [json.loads(line)["checks"]["CONJ11_DP"] for line in out.read_text().splitlines()]
    assert checks == [
        {"passed": True},
        {"passed": True},
        {"passed": False, "counterexample": {"p": 11, "direct": str(2**60)}, "note": "synthetic"},
        {"passed": True},
    ]
    code, stdout, _ = run(capsys, "scan", "--from", "5", "--to", "13", "--ids", "CONJ11_DP",
                          "--out", str(out), "--resume", "--jobs", "1")
    assert code == 4 and "FAIL CONJ11_DP at p=11" in stdout


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
