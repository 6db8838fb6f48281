import pytest

from legdet.verify import (
    CONJECTURE_IDS,
    RANDOM_IDS,
    CheckId,
    applicable,
    check,
    describe,
    exit_code_for,
    mdl_random_suite,
    pool_size,
    requirement,
    scan,
    t31_random_suite,
)
from legdet.ntheory import primes_in_range


def test_catalog_passes_for_small_primes():
    # the heavier acceptance module pushes the same checks to their full
    # ranges; this is the quick regression over both residue classes
    for p in primes_in_range(3, 60):
        for cid in CheckId:
            if cid in RANDOM_IDS or not applicable(cid, p):
                continue
            res = check(cid, p, seed=0)
            assert res.passed, (cid, p, res.witness)
            assert res.p == p and res.elapsed >= 0


def test_every_check_has_description_and_requirement():
    for cid in CheckId:
        assert describe(cid)
        assert requirement(cid)


def test_check_accepts_string_ids():
    assert check("T13_DPMOD4", 13).passed
    with pytest.raises(ValueError):
        check("NO_SUCH_CHECK", 13)


def test_residue_class_usage_errors():
    with pytest.raises(ValueError, match="1 \\(mod 4\\)"):
        check(CheckId.T12_I, 7)
    with pytest.raises(ValueError, match="p > 3"):
        check(CheckId.T11_DET_3MOD4, 3)
    with pytest.raises(ValueError, match="not an odd prime"):
        check(CheckId.T13_DPMOD4, 9)
    with pytest.raises(ValueError, match="needs a prime"):
        check(CheckId.T13_DPMOD4)


def test_applicability_table():
    assert not applicable(CheckId.CONJ11_DP, 3)
    assert applicable(CheckId.SUN_C31_II, 3)
    assert not applicable(CheckId.SUN_C31_I, 3)
    assert applicable(CheckId.ATHETA, 3)
    assert not applicable(CheckId.L23_EIGVECS, 7)
    assert applicable(CheckId.T31_RANDOM, 3)


def test_random_suites():
    assert t31_random_suite(count=50, seed=0).passed
    assert mdl_random_suite(count=50, seed=0).passed
    r = check(CheckId.T31_RANDOM, seed=1)
    assert r.passed and r.p is None


def test_eigs_product_flag():
    r = check(CheckId.L25_EIGS, 59)
    assert r.passed and r.witness["product_checked"]
    assert r.witness["product_relative_error"] < 1e-6
    r = check(CheckId.L25_EIGS, 67)
    assert r.passed and not r.witness["product_checked"]


def test_exit_code_classification():
    assert exit_code_for([]) == 0
    assert exit_code_for([CheckId.CONJ11_DP]) == 4
    assert exit_code_for(["CONJ11_DP"]) == 4
    assert exit_code_for([CheckId.T13_DPMOD4]) == 1
    assert exit_code_for([CheckId.CONJ11_DP, CheckId.T13_DPMOD4]) == 1
    assert CONJECTURE_IDS == {CheckId.CONJ11_DP}


def collect(records):
    def sink(rec):
        records.append(rec)

    return sink


def test_scan_single_prime():
    records = []
    summary = scan([CheckId.T11_DET_3MOD4], 7, 7, collect(records))
    assert summary.passed == 1 and summary.failed == 0 and summary.skipped == 0
    assert len(records) == 1 and records[0].p == 7
    assert records[0].checks["T11_DET_3MOD4"]["passed"] is True


def test_scan_skips_wrong_residue_class_and_keeps_order():
    records = []
    summary = scan([CheckId.CONJ11_DP], 3, 60, collect(records), jobs=1)
    ps = [r.p for r in records]
    assert ps == primes_in_range(3, 60)
    assert summary.skipped == 1  # p = 3 needs p > 3
    assert summary.failed == 0
    assert records[0].checks == {}  # p = 3, nothing applicable


def test_scan_parallel_matches_sequential():
    seq, par = [], []
    s1 = scan([CheckId.T13_DPMOD4, CheckId.L41_SUMS], 3, 120, collect(seq), jobs=1)
    s2 = scan([CheckId.T13_DPMOD4, CheckId.L41_SUMS], 3, 120, collect(par), jobs=2)
    assert (s1.passed, s1.failed, s1.skipped) == (s2.passed, s2.failed, s2.skipped)
    assert [(r.p, r.checks) for r in seq] == [(r.p, r.checks) for r in par]


def test_scan_skip_set():
    records = []
    scan([CheckId.T13_DPMOD4], 3, 30, collect(records), skip={3, 5, 29})
    assert [r.p for r in records] == [7, 11, 13, 17, 19, 23]


def test_scan_validates_inputs():
    with pytest.raises(ValueError):
        scan([CheckId.T13_DPMOD4], 10, 5, lambda r: None)
    with pytest.raises(ValueError):
        scan([CheckId.T13_DPMOD4], 1, 5, lambda r: None)
    with pytest.raises(ValueError):
        scan(["BOGUS"], 3, 5, lambda r: None)
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            scan([CheckId.T13_DPMOD4], 3, 5, lambda r: None, jobs=jobs)


def test_pool_size_clamps_to_cores_and_primes():
    assert pool_size(1, 8, 100) == 1
    assert pool_size(4, 2, 100) == 2
    assert pool_size(10**6, 2, 100) == 2
    assert pool_size(10**6, 64, 3) == 3
    assert pool_size(None, 4, 100) == 4
    assert pool_size(None, 4, 1) == 1
    assert pool_size(8, 8, 0) == 1
    for bad in (0, -1, -(10**6)):
        with pytest.raises(ValueError):
            pool_size(bad, 8, 100)


def test_scan_records_failure_note(monkeypatch):
    import legdet.verify as v

    broken = v._Spec(
        "any odd prime", lambda p: True, lambda p, s: (False, {"note": "forced failure"}),
        "forced",
    )
    monkeypatch.setitem(v._REGISTRY, CheckId.T13_DPMOD4, broken)
    records = []
    summary = scan([CheckId.T13_DPMOD4], 5, 5, collect(records), jobs=1)
    assert summary.failed == 1
    assert summary.failures == [(5, "T13_DPMOD4")]
    assert records[0].checks["T13_DPMOD4"] == {
        "passed": False,
        "note": "forced failure",
    }
    assert exit_code_for(name for _, name in summary.failures) == 1
