import dataclasses
import json

import numpy as np
import pytest

import oracles
import legdet.exactla
import legdet.ntheory as ntheory
import legdet.verify as v
import legdet.charmat as charmat
from legdet.charmat import build, symbol_vector
from legdet.errors import InternalError
from legdet.exactla import ParamDet, param_det_expand
from legdet.cli import main
from legdet.verify import (
    CONJECTURE_IDS,
    RANDOM_IDS,
    CheckId,
    applicable,
    check,
    describe,
    exit_code_for,
    mdl_random_suite,
    parse_ids,
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


def test_parse_ids_keeps_the_given_order():
    assert parse_ids("all") == list(CheckId)
    assert parse_ids("MORDELL, T13_DPMOD4") == [CheckId.MORDELL, CheckId.T13_DPMOD4]
    assert parse_ids([CheckId.ATHETA, "L21_QUADSUM"]) == [CheckId.ATHETA, CheckId.L21_QUADSUM]
    for bad in ("", "all,MORDELL", ["all"], ["MORDELL,ATHETA"]):
        with pytest.raises(ValueError, match="unknown check id"):
            parse_ids(bad)


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
    for p in (59, 67):
        r = check(CheckId.L25_EIGS, p)
        assert r.passed and r.witness["product_checked"]
        assert "product_relative_error" not in r.witness


def test_float_eigenvalue_product_matches_det_of_the_circulant():
    for p in primes_in_range(3, 59):
        if p % 4 == 3:
            d = legdet.exactla.det(v._eig_circulant(p, v._primitive_root(p)))
            prod = oracles.eigenvalue_product_by_floats(p)
            assert abs(prod - d) / abs(d) < 1e-6, p


def test_eigs_fails_with_the_symbol_shifted_by_two(monkeypatch, fresh_caches):
    # c_j = ((2 + g^j)/p) + ((2 - g^j)/p) in place of ((1 + g^j)/p) + ((1 - g^j)/p)
    def shifted(p, g):
        vals = ntheory.legendre_table(p)
        n = (p - 1) // 2
        c = np.array([vals[(2 + x) % p] + vals[(2 - x) % p] for x in (pow(g, j, p) for j in range(n))])
        idx = np.arange(n)
        return c[(idx - idx[:, None]) % n]

    monkeypatch.setattr(v, "_eig_circulant", shifted)
    failed = [p for p in primes_in_range(3, 199) if p % 4 == 3 and not check(CheckId.L25_EIGS, p).passed]
    assert failed


@pytest.mark.parametrize("p", [13, 29, 101])
def test_eigenspace_comparison_finds_the_loop_s_first_mismatch(p):
    ap = build("aplus", p)
    sq = ap @ ap
    assert v._eigenspace_mismatch(p, sq) is None
    assert oracles.eigenspace_mismatch_by_loop(p, sq.tolist()) is None
    n = (p - 1) // 2
    for r, c in ((0, 0), (0, n - 1), (n - 1, 1), (n // 2, n // 3), (n - 1, n - 1)):
        bad = sq.copy()
        bad[r, c] += 1
        want = oracles.eigenspace_mismatch_by_loop(p, bad.tolist())
        assert want is not None
        assert v._eigenspace_mismatch(p, bad) == want


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


# --- the two-layer sample comparison ------------------------------------------


def _patch_det(monkeypatch, replacement):
    """Replace exactla._dets, the one door of every determinant (det_many's
    and shifted_dets' alike), by one that returns replacement(m, det(m)) for
    each matrix m, as rows of Python ints."""
    real = legdet.exactla._dets

    def patched(items):
        items = list(items)
        return [replacement(data.tolist(), d) for (data, *_), d in zip(items, real(items))]

    monkeypatch.setattr(legdet.exactla, "_dets", patched)


def test_closed_form_checks_compute_each_determinant_once(monkeypatch, fresh_caches):
    calls = []
    _patch_det(monkeypatch, lambda m, d: calls.append(len(m)) or d)

    def dets(cid, p):
        before = len(calls)
        assert check(cid, p).passed
        return len(calls) - before

    # 5 base determinants and 20 samples, each compared with both layers
    assert dets(CheckId.T12_I, 101) == 25
    assert dets(CheckId.T12_II, 103) == 25
    # the record's expansion is reused: COR adds only its own 40 determinants
    assert dets(CheckId.COR_AFTER_T12, 103) == 40
    assert dets(CheckId.EQ_38II_QP, 103) == 0
    assert dets(CheckId.SUN_C31_I, 101) == 25
    assert dets(CheckId.SUN_C31_II, 101) == 25
    assert dets(CheckId.SUN_C31_I, 103) == 25
    assert dets(CheckId.SUN_C31_II, 103) == 25


@pytest.mark.parametrize("cid", [CheckId.EQ_DP_U1AU0, CheckId.EQ_38II_QP])
def test_base_expansion_checks_compute_only_the_base_determinants(monkeypatch, fresh_caches, cid):
    # run alone, each takes det(A+) and the expansion's four other base
    # determinants from p's record, and no sample
    calls = []
    _patch_det(monkeypatch, lambda m, d: calls.append(len(m)) or d)
    assert check(cid, 103).passed
    assert calls == [51] * 5


def _first_sample_off_by_one(monkeypatch, cid, p, seed=0):
    """Make det one too large on the matrix of check cid's first sample point;
    returns that point."""
    point = v._sample_tuples(v._rng(seed, cid.name, p))[0]
    if cid is CheckId.SUN_C31_I:
        base, f = build("sun_plus", p), [0, *symbol_vector(p)]
    else:
        base, f = build("aplus", p), symbol_vector(p)
    target = oracles.shifted_rows(base.tolist(), f, f, *point)
    _patch_det(monkeypatch, lambda m, d: d + (m == target))
    return point


@pytest.mark.parametrize("cid, p", [(CheckId.T12_II, 103), (CheckId.SUN_C31_I, 101)])
def test_sample_mismatch_fails_with_counterexample(monkeypatch, fresh_caches, cid, p):
    point = _first_sample_off_by_one(monkeypatch, cid, p)
    res = check(cid, p, seed=0)
    assert res.passed is False
    bad = res.witness["counterexample"]
    assert bad["point"] == list(point)
    assert res.witness["note"] == f"sample mismatch at {list(point)}"
    assert res.witness["coeffs_match"] is True  # layer 1 still holds
    assert int(bad["direct"]) == int(bad["expansion"]) + 1 == int(bad["closed_form"]) + 1


def test_sample_mismatch_exits_1(monkeypatch, fresh_caches, capsys):
    _first_sample_off_by_one(monkeypatch, CheckId.T12_II, 103)
    code = main(["verify", "--prime", "103", "--suite", "T12_II"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL T12_II p=103" in out and "sample mismatch" in out


def test_wrong_adjugate_fails_the_matrix_determinant_lemma(monkeypatch, fresh_caches, capsys):
    # mdl_check takes adj(a) u from adjugate_apply, so MDL_RANDOM catches a
    # wrong solve
    real = legdet.exactla.adjugate_apply

    def off_by_one(m, u):
        w, d = real(m, u)
        w[0, 0] += 1
        return w, d

    monkeypatch.setattr(legdet.exactla, "adjugate_apply", off_by_one)
    e1 = np.array([[1], [0]])
    assert legdet.exactla.mdl_check(np.identity(2, dtype=np.int64), e1, e1) is False
    assert check(CheckId.MDL_RANDOM, 13).passed is False
    assert main(["verify", "--prime", "13", "--suite", "MDL_RANDOM"]) == 1
    assert "FAIL MDL_RANDOM" in capsys.readouterr().out


def test_mdl_random_builds_no_moduli(monkeypatch, fresh_caches):
    # its matrices are at most 6 x 6: every det and solve is one Bareiss
    # elimination
    monkeypatch.setattr(legdet.exactla, "_moduli_for", lambda *a, **kw: pytest.fail("built moduli"))
    for seed in range(3):
        assert check(CheckId.MDL_RANDOM, 13, seed).passed


def _replace_aplus(monkeypatch, p, make):
    """charmat.build returns make(A+ of p, writable) for A+ of p."""
    real = charmat.build

    def patched(name, q):
        m = real(name, q)
        if name == "aplus" and q == p:
            m = make(m.copy())
            m.flags.writeable = False
        return m

    monkeypatch.setattr(charmat, "build", patched)


def _t11_want(p):
    x2 = legdet.exactla.IntPoly((-p, 0, 1))
    return str(legdet.exactla.IntPoly((-1, 0, 1)) * x2 ** ((p - 5) // 4)), str(x2 ** ((p - 1) // 4))


def test_t11_passes_by_certificate_without_a_charpoly_or_det(monkeypatch, fresh_caches):
    # the certificate proves both charpolys at every p ≡ 1 (mod 4) below 400,
    # and the witness prints the stated polynomials
    monkeypatch.setattr(charmat, "charpoly", lambda *a: pytest.fail("computed a charpoly"))
    monkeypatch.setattr(legdet.exactla, "_dets", lambda items: pytest.fail("computed a det"))
    for p in primes_in_range(5, 400):
        if p % 4 == 1:
            res = check(CheckId.T11_CHARPOLY_1MOD4, p)
            assert res.passed, p
            assert (res.witness["charpoly_aplus"], res.witness["charpoly_aminus"]) == _t11_want(p)


def test_t11_symmetric_change_fails_with_the_computed_charpoly(monkeypatch, fresh_caches):
    def change(m):
        m[0, 1] += 1
        m[1, 0] += 1
        return m

    _replace_aplus(monkeypatch, 101, change)
    assert not v._t11_certificate(101)
    res = check(CheckId.T11_CHARPOLY_1MOD4, 101)
    want_plus, want_minus = _t11_want(101)
    assert res.passed is False
    assert res.witness["charpoly_aplus"] == str(legdet.exactla.charpoly(change(build("aplus", 101).copy())))
    assert res.witness["charpoly_aplus"] != want_plus
    assert res.witness["charpoly_aminus"] == want_minus
    assert res.witness["note"] == f"expected {want_plus} and {want_minus}"


def _sum_of_squares_blocks(ones):
    """diag(ones) beside two copies of [[2, 3], [3, -2]], whose square is
    13 I: symmetric, with (M^2 - I)(M^2 - 13 I) = 0 and tr M^2 = 2 + 13 * 4,
    the certificate's conditions at p = 13 (n = 6) but for tr M = sum(ones)."""
    m = np.zeros((6, 6), dtype=np.int64)
    m[0, 0], m[1, 1] = ones
    for i in (2, 4):
        m[i : i + 2, i : i + 2] = [[2, 3], [3, -2]]
    return m


def test_t11_wrong_trace_fails(monkeypatch, fresh_caches):
    # the only condition the replacement misses is tr A+ = 0, and its
    # charpoly (x - 1)^2 (x^2 - 13)^2 is not the stated one
    _replace_aplus(monkeypatch, 13, lambda m: _sum_of_squares_blocks((1, 1)))
    assert not v._t11_certificate(13)
    res = check(CheckId.T11_CHARPOLY_1MOD4, 13)
    assert res.passed is False
    assert res.witness["charpoly_aplus"] == "x^6 - 2*x^5 - 25*x^4 + 52*x^3 + 143*x^2 - 338*x + 169"
    # with the trace right, the same blocks pass on the certificate alone
    charmat.at.cache_clear()
    _replace_aplus(monkeypatch, 13, lambda m: _sum_of_squares_blocks((1, -1)))
    monkeypatch.setattr(charmat, "charpoly", lambda *a: pytest.fail("computed a charpoly"))
    assert v._t11_certificate(13) and check(CheckId.T11_CHARPOLY_1MOD4, 13).passed


def test_t12_ii_alone_holds_the_expansion_to_its_samples(monkeypatch, fresh_caches):
    # EQ_38II_QP reads the record's expansion and no sample: a wrong sample
    # determinant of T12_II's fails T12_II only
    point = _first_sample_off_by_one(monkeypatch, CheckId.T12_II, 103)
    res = check(CheckId.T12_II, 103, seed=0)
    assert res.passed is False
    assert res.witness["counterexample"]["point"] == list(point)
    res = check(CheckId.EQ_38II_QP, 103, seed=0)
    assert res.passed and "counterexample" not in res.witness


def test_wrong_c_p_fails_both_layers_of_t12_ii(monkeypatch, fresh_caches, capsys):
    # T12_II states its closed form once; with c_p off by one at p = 103,
    # both layer-1 fields and the samples disagree with it
    real = charmat.prime_invariants

    def off_by_one(p):
        inv = real(p)
        return dataclasses.replace(inv, c_p=inv.c_p + 1) if p == 103 else inv

    monkeypatch.setattr(charmat, "prime_invariants", off_by_one)
    res = check(CheckId.T12_II, 103, seed=0)
    assert res.passed is False
    assert res.witness["coeffs_match"] is False and res.witness["base_dets_match"] is False
    bad = res.witness["counterexample"]
    assert res.witness["note"] == f"sample mismatch at {bad['point']}"
    assert bad["direct"] == bad["expansion"] != bad["closed_form"]
    assert main(["verify", "--prime", "103", "--suite", "T12_II"]) == 1
    assert "FAIL T12_II p=103" in capsys.readouterr().out


def test_degree_2_points_catch_a_term_the_basis_points_miss():
    # |I + x J| = 1 + 2x for the 2x2 all-ones J; an extra x y vanishes at 0,
    # the unit points and (0, 1, 1, 0), where the six basis coefficients are read
    pd, _ = param_det_expand(np.identity(2, dtype=np.int64), [0, 0], [0, 0], [])

    def rhs(x, y, z, w):
        return 1 + 2 * x

    def off(x, y, z, w):
        return 1 + 2 * x + x * y

    assert all(off(*pt) == rhs(*pt) for pt in [*v._BASE, (0, 1, 1, 0)])
    assert v._two_layer({}, pd, [], rhs, coeffs_match=v._DEGREE_2) == (True, {"coeffs_match": True})
    ok, wit = v._two_layer({}, pd, [], off, coeffs_match=v._DEGREE_2, base_dets_match=v._BASE)
    assert not ok
    assert wit == {
        "coeffs_match": False, "base_dets_match": True, "note": "coefficient comparison failed",
    }


def test_non_integral_expansion_is_a_sample_mismatch(monkeypatch, fresh_caches, capsys):
    # alpha = 2 does not divide alpha2 alpha3 - alpha1 alpha4 = 1: the
    # expansion at (0, 1, 1, 0) is -1/2, which no determinant equals
    pd = ParamDet(2, 1, 1, 1, 0)
    assert pd.scaled(0, 1, 1, 0) == -1
    ok, wit = v._two_layer({}, pd, [((0, 1, 1, 0), 0)], None)
    assert not ok and wit["counterexample"]["expansion"] == "-1/2"
    monkeypatch.setattr(charmat.PrimeRecord, "aplus_expansion", pd)
    monkeypatch.setattr(v, "_aplus_samples", lambda p, points: [((0, 1, 1, 0), 0)])
    assert main(["verify", "--prime", "103", "--suite", "T12_II", "--json"]) == 1
    [res] = json.loads(capsys.readouterr().out)["results"]
    assert res["passed"] is False
    assert res["witness"]["note"] == "sample mismatch at [0, 1, 1, 0]"
    assert res["witness"]["counterexample"]["expansion"] == "-1/2"


@pytest.mark.parametrize("cid", [CheckId.T13_DPMOD4, CheckId.L21_QUADSUM, CheckId.L41_SUMS])
def test_wrong_symbol_table_is_a_check_failure(monkeypatch, fresh_caches, capsys, cid):
    # with (12/13) = (-1/13) flipped in the table ntheory sums over, d_p comes
    # out 0, not ≡ -6 (mod 4), and the quadratic and half-range double sums
    # come out wrong; ntheory returns them and the check judges them
    real = ntheory.legendre_table

    def flipped(p):
        vals = list(real(p))
        vals[p - 1] = -vals[p - 1]
        return tuple(vals)

    monkeypatch.setattr(ntheory, "legendre_table", flipped)
    assert ntheory.prime_invariants(13).d_p == 0
    assert check(cid, 13).passed is False
    assert main(["verify", "--prime", "13", "--suite", cid.value]) == 1
    assert f"FAIL {cid.value} p=13" in capsys.readouterr().out


def test_mordell_violation_exits_1_under_suite_all(monkeypatch, fresh_caches, capsys):
    # h(-p) comes from the character sum alone, so a wrong factorial reaches
    # only MORDELL, which reports a failed statement, not an internal error
    for mod in (ntheory, v):
        monkeypatch.setattr(mod, "factorial_half_mod", lambda p: 0)
    assert main(["verify", "--prime", "7", "--suite", "all"]) == 1
    out = capsys.readouterr().out
    assert "FAIL MORDELL p=7" in out
    assert out.count("FAIL") == 1


def test_mordell_reads_h_from_the_invariant_record(monkeypatch, fresh_caches):
    # h(-7) = 1 put off by 2 flips (-1)^((h+1)/2): MORDELL fails on the h the
    # record holds, not on one it derives itself
    real = charmat.prime_invariants
    monkeypatch.setattr(charmat, "prime_invariants", lambda p: dataclasses.replace(real(p), h_neg=3))
    res = check(CheckId.MORDELL, 7)
    assert res.passed is False and res.witness["h_neg"] == 3


def test_special_eigvecs_half_fill_failure_is_a_check_failure(monkeypatch, fresh_caches, capsys):
    # with (5/13) and (8/13) flipped in the table charmat reads, four
    # residues fall in 1..6: L23 reports it, and the run still exits 1
    real = ntheory.legendre_table

    def flipped(p):
        vals = list(real(p))
        for a in (5, 8):
            vals[a] = -vals[a]
        return tuple(vals)

    monkeypatch.setattr(charmat, "legendre_table", flipped)
    assert main(["verify", "--prime", "13", "--suite", "all"]) == 1
    out = capsys.readouterr().out
    assert "FAIL L23_EIGVECS p=13" in out
    assert "residues do not fill half of 1..n" in out


# --- one source for each per-prime value --------------------------------------


def test_verify_builds_the_symbol_table_once(fresh_caches, capsys):
    assert main(["verify", "--prime", "103", "--suite", "all"]) == 0
    info = ntheory.legendre_table.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_verify_sums_the_half_range_sums_once_per_prime(monkeypatch, fresh_caches, capsys):
    # EQ_DCOUNT reads S2 from the record's half_range_sums that L41_SUMS
    # reads, and both read S1 as the record's c_p
    calls = []
    real = ntheory.half_range_sums
    monkeypatch.setattr(charmat, "half_range_sums", lambda p: calls.append(p) or real(p))
    assert main(["verify", "--prime", "103", "--suite", "L41_SUMS,EQ_DCOUNT"]) == 0
    assert calls == [103]


def test_l25_checks_share_one_ap_determinant(monkeypatch, fresh_caches):
    ap = build("ap", 103).tolist()
    calls = []
    _patch_det(monkeypatch, lambda m, d: calls.append(m == ap) or d)
    assert check(CheckId.L25_AP_NEG, 103).passed
    r = check(CheckId.L25_EIGS, 103)
    assert r.passed and int(r.witness["det_ap"]) < 0
    # det(A_p) once, and L25_EIGS's circulant once
    assert calls == [True, False]


def test_verify_computes_det_aplus_once_per_prime(monkeypatch, fresh_caches, capsys):
    # T11_DET_3MOD4 and T12_II's expansion read one det(A+), and EQ_DP_U1AU0
    # reads it, with alpha3, from that expansion
    aplus = build("aplus", 103).tolist()
    calls = []
    _patch_det(monkeypatch, lambda m, d: calls.append(m == aplus) or d)
    assert main(["verify", "--prime", "103", "--suite", "all"]) == 0
    assert calls.count(True) == 1


def test_wrong_alpha3_fails_t12_ii_and_eq_dp_u1au0(monkeypatch, fresh_caches, capsys):
    # EQ_DP_U1AU0 reads u1^T adj(A+) 1 as alpha3 - alpha from T12_II's
    # expansion: det(A+ + 1 u1^T), the base determinant at (0, 0, 1, 0),
    # one too large at the determinant door fails both checks
    p = 103
    shifted = (build("aplus", p) + np.array(symbol_vector(p))).tolist()
    _patch_det(monkeypatch, lambda m, d: d + 1 if m == shifted else d)
    assert main(["verify", "--prime", str(p), "--suite", "T12_II,EQ_DP_U1AU0", "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(r["id"], r["passed"]) for r in results] == [("T12_II", False), ("EQ_DP_U1AU0", False)]
    wit = results[1]["witness"]
    assert int(wit["lhs"]) - int(wit["rhs"]) == p


def _count_base_dets(monkeypatch, p):
    """A dict {"aplus": n, "aminus": n} counting A+ and A- of p at the
    determinant door."""
    mats = {name: build(name, p).tolist() for name in ("aplus", "aminus")}
    counts = dict.fromkeys(mats, 0)

    def seen(m, d):
        for name, want in mats.items():
            counts[name] += m == want
        return d

    _patch_det(monkeypatch, seen)
    return counts


def test_verify_computes_det_aplus_and_aminus_once_at_1mod4(monkeypatch, fresh_caches, capsys):
    # T11_DET_1MOD4 and T12_I's expansion read one det each of A+ and A-;
    # T11_CHARPOLY_1MOD4, proved by its certificate, reads none
    counts = _count_base_dets(monkeypatch, 101)
    assert main(["verify", "--prime", "101", "--suite", "all"]) == 0
    assert counts == {"aplus": 1, "aminus": 1}


def test_verify_takes_det_aminus_from_det_aplus_at_3mod4(monkeypatch, fresh_caches, capsys):
    # A- = A+^T at p ≡ 3 (mod 4), entry by entry: det(A-) is never computed
    counts = _count_base_dets(monkeypatch, 103)
    assert main(["verify", "--prime", "103", "--suite", "all"]) == 0
    assert counts == {"aplus": 1, "aminus": 0}


@pytest.mark.parametrize("argv, want", [
    (["compute", "--prime", "101", "--what", "charpoly-aplus,det-aplus,det-aminus,charpoly-aminus"],
     {"aplus": 1, "aminus": 1}),
    (["compute", "--prime", "101", "--what", "charpoly-aplus"], {"aplus": 1, "aminus": 0}),
    (["charpoly", "--prime", "101"], {"aplus": 1, "aminus": 1}),
])
def test_compute_shares_det_with_charpoly(monkeypatch, fresh_caches, capsys, argv, want):
    # charpoly alone computes its own cross-check determinant
    counts = _count_base_dets(monkeypatch, 101)
    assert main(argv) == 0
    assert counts == want


def test_charpoly_cross_checks_the_determinant_it_is_given():
    a = build("aplus", 13)
    d = legdet.exactla.det(a)
    assert legdet.exactla.charpoly(a, d) == legdet.exactla.charpoly(a)
    with pytest.raises(InternalError):
        legdet.exactla.charpoly(a, d + 1)


def test_t11_det_3mod4_takes_both_determinants_from_one_call(monkeypatch, fresh_caches):
    # the one call holds A+ alone: A- = A+^T takes its determinant
    calls = []
    real = legdet.exactla.det_many
    monkeypatch.setattr(charmat, "det_many", lambda ms, *args: calls.append(list(ms)) or real(calls[-1], *args))
    res = check(CheckId.T11_DET_3MOD4, 103)
    assert res.passed and res.witness["det_aminus"] == res.witness["det_aplus"]
    assert [[m.tolist() for m in ms] for ms in calls] == [[build("aplus", 103).tolist()]]


def test_mdl_check_solves_all_columns_in_one_adjugate_call(monkeypatch):
    calls = []
    real = legdet.exactla.adjugate_apply
    monkeypatch.setattr(legdet.exactla, "adjugate_apply", lambda *a: calls.append(a) or real(*a))
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    u = [[1, 0, 2], [0, 1, 1], [1, 1, 0]]
    assert legdet.exactla.mdl_check(a, u, u)
    assert [(m.tolist(), w.tolist()) for m, w in calls] == [(a, u)]


def test_seed_only_instances_compute_each_det_once(monkeypatch, fresh_caches):
    # det(a), taken to reject a singular draw, is handed on to the expansion,
    # and the adjugate's elimination finds it outside the det door, so each
    # drawn a reaches the det door once
    drawn, seen = [], []
    real = v._random_int_matrix
    monkeypatch.setattr(v, "_random_int_matrix", lambda *args: drawn.append(real(*args)) or drawn[-1])
    _patch_det(monkeypatch, lambda m, d: seen.append(m) or d)
    assert t31_random_suite(20).passed and mdl_random_suite(20).passed
    # a 1 x 1 sample or product can equal a 1 x 1 draw by value, so only the
    # larger draws are counted
    large = [a.tolist() for a in drawn if len(a) > 1]
    assert len(large) >= 30
    assert [seen.count(a) for a in large] == [1] * len(large)


def test_scan_runs_each_seed_only_suite_once(monkeypatch, fresh_caches, tmp_path, capsys):
    runs = []

    def counting(name):
        real = getattr(v, name)
        return lambda rng, count: runs.append(name) or real(rng, count)

    for name in ("_t31_instances", "_mdl_instances"):
        monkeypatch.setattr(v, name, counting(name))
    out = tmp_path / "scan.jsonl"
    argv = ["scan", "--from", "3", "--to", "30", "--ids", "all", "--jobs", "1", "--out", str(out)]
    assert main(argv) == 0
    assert sorted(runs) == ["_mdl_instances", "_t31_instances"]
    records = out.read_text().splitlines()
    assert len(records) == 9
    for r in records:  # every prime's record still lists both checks
        assert '"T31_RANDOM":{"passed":true}' in r and '"MDL_RANDOM":{"passed":true}' in r


def test_scan_tests_each_prime_once(monkeypatch, fresh_caches, tmp_path, capsys):
    # every check and the symbol table validate p, but only the first
    # validation of a prime runs is_prime
    calls = []
    real = ntheory.is_prime
    monkeypatch.setattr(ntheory, "is_prime", lambda n: calls.append(n) or real(n))
    out = tmp_path / "scan.jsonl"
    argv = ["scan", "--from", "3", "--to", "500", "--ids", "T13_DPMOD4,CONJ11_DP,EQ_DCOUNT",
            "--jobs", "1", "--out", str(out)]
    assert main(argv) == 0
    assert calls == primes_in_range(3, 500)
    calls.clear()
    for _ in range(2):  # a failure is not remembered
        with pytest.raises(ValueError, match="not an odd prime"):
            ntheory.require_odd_prime(9)
    assert calls == [9, 9]


def test_verify_proves_the_prime_once(monkeypatch, fresh_caches, capsys):
    # the realquad entry points validate p through require_odd_prime's
    # cache as well, so the whole catalog at p = 101 runs is_prime(101) once
    import legdet.realquad as realquad

    calls = []
    real = ntheory.is_prime
    for mod in (ntheory, realquad, legdet.exactla):
        if hasattr(mod, "is_prime"):
            monkeypatch.setattr(mod, "is_prime", lambda n: calls.append(n) or real(n))
    assert main(["verify", "--prime", "101", "--suite", "all"]) == 0
    assert calls.count(101) == 1


def test_per_prime_caches_hold_one_prime(fresh_caches):
    assert check(CheckId.ATHETA, 103).passed and check(CheckId.ATHETA, 107).passed
    caches = {
        f"{mod.__name__}.{name}": obj.cache_info() for mod in (v, charmat) for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__
        and obj is not v._seeded_suite  # per seed, not per prime
    }
    assert set(caches) == {"legdet.charmat.at"}
    assert all(c.maxsize == 1 and c.currsize <= 1 for c in caches.values())
    # one record per prime, and only the last one kept
    assert caches["legdet.charmat.at"].misses == 2 and caches["legdet.charmat.at"].currsize == 1


def test_seed_only_suite_witness_is_a_copy(fresh_caches):
    first = t31_random_suite(count=3, seed=5)
    first.witness["instances"] = -1
    again = t31_random_suite(count=3, seed=5)
    assert again.witness == {"instances": 3} and again.passed


# --- the known divisor of the catalog's samples ---------------------------------


_EXPANSION_IDS = (CheckId.T12_I, CheckId.T12_II, CheckId.COR_AFTER_T12, CheckId.SUN_C31_I, CheckId.SUN_C31_II)


@pytest.mark.parametrize("seed", [0, 7])
def test_every_catalog_sample_equals_the_undivided_path_to_199(monkeypatch, fresh_caches, seed):
    # each shifted_dets and param_det_expand call of the five expansion
    # checks, at every prime they apply to up to 199, computed again with no
    # q; the last argument of each call is the q the catalog names
    named = set()

    def undivided_too(fn):
        def both(*args):
            got = fn(*args)
            named.add(args[-1])
            if args[-1] is not None:
                assert fn(*args[:-1], None) == got, args[-1]
            return got
        return both

    monkeypatch.setattr(v, "shifted_dets", undivided_too(v.shifted_dets))
    # the record's expansion of A+ and the Sun checks' expansions alike
    for mod in (v, charmat):
        monkeypatch.setattr(mod, "param_det_expand", undivided_too(mod.param_det_expand))
    for p in primes_in_range(3, 199):
        for cid in _EXPANSION_IDS:
            if applicable(cid, p):
                assert check(cid, p, seed).passed, (cid, p)
        assert p in named or p < 7
    assert {2, None} <= named  # sun_plus names 2, sun_minus none


def test_catalog_names_p_for_aplus_and_2_for_sun_plus_only(monkeypatch, fresh_caches):
    # (n, q, rank-2 updates) of each known divisor the catalog asks for
    calls = []
    real = legdet.exactla._known_divisor
    monkeypatch.setattr(legdet.exactla, "_known_divisor", lambda a, q, updates=0, rank=None: calls.append((len(a), q, updates)) or real(a, q, updates, rank))
    for cid, p, want in (
        # det(A+), the expansion's other base determinants, then the samples
        (CheckId.T12_I, 101, [(50, 101, 0), (50, 101, 2), (50, 101, 2)]),
        (CheckId.SUN_C31_I, 101, [(51, 2, 2)]),
        (CheckId.SUN_C31_II, 101, [(51, None, 2)]),
        (CheckId.COR_AFTER_T12, 103, [(51, 103, 0), (51, 103, 2), (51, 103, 2)]),  # its restricted points
    ):
        calls.clear()
        assert check(cid, p).passed
        assert calls == want, cid


# --- one matrix-size guard ------------------------------------------------------


def _no_matrices(monkeypatch):
    """Fail the test on any symbol table above p = 4099, sieve or matrix."""
    real_table = ntheory.legendre_table

    def table(p):
        assert p < 4099, f"built the symbol table of {p}"
        return real_table(p)

    monkeypatch.setattr(charmat, "build", lambda *a: pytest.fail("built a matrix"))
    monkeypatch.setattr(charmat, "legendre_table", table)
    monkeypatch.setattr(v, "legendre_table", table)
    monkeypatch.setattr(v, "primes_in_range", lambda lo, hi: pytest.fail(f"sieved [{lo}, {hi}]"))


def test_matrix_ids_are_the_checks_that_build_matrices(monkeypatch, fresh_caches):
    built = []
    real = charmat.build
    monkeypatch.setattr(charmat, "build", lambda name, p: built.append(name) or real(name, p))
    for cid in CheckId:
        if cid in RANDOM_IDS:
            continue
        p = next(q for q in (13, 11, 7) if applicable(cid, q))
        charmat.at.cache_clear()
        built.clear()
        assert check(cid, p).passed
        assert bool(built) == (cid in v.MATRIX_IDS), cid


@pytest.mark.parametrize("cid, p", [(CheckId.L25_EIGS, 10007), (CheckId.T11_DET_3MOD4, 4099), (CheckId.SUN_C31_II, 4099)])
def test_check_refuses_a_matrix_check_above_the_dimension_limit(monkeypatch, fresh_caches, cid, p):
    _no_matrices(monkeypatch)
    with pytest.raises(ValueError, match=r"n = \(p-1\)/2 = \d+ is above 2048"):
        check(cid, p)


def test_check_runs_a_table_check_above_the_dimension_limit(monkeypatch, fresh_caches):
    monkeypatch.setattr(charmat, "build", lambda *a: pytest.fail("built a matrix"))
    assert check(CheckId.T13_DPMOD4, 10007).passed and check(CheckId.MORDELL, 10007).passed


@pytest.mark.parametrize("argv", [
    ["verify", "--prime", "10007", "--suite", "L25_EIGS"],
    ["verify", "--prime", "4099"],
    ["verify", "--from", "4000", "--to", "4100", "--suite", "T13_DPMOD4,L22_GRAM"],
    ["scan", "--from", "3", "--to", "10007", "--ids", "T13_DPMOD4,L25_EIGS"],
])
def test_matrix_checks_above_the_limit_are_a_usage_error_before_sieving(monkeypatch, fresh_caches, capsys, tmp_path, argv):
    _no_matrices(monkeypatch)
    out = tmp_path / "s.jsonl"
    if argv[0] == "scan":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "is above 2048" in captured.err
    assert not out.exists()


def test_scan_refuses_matrix_checks_above_the_limit_before_sieving(monkeypatch, fresh_caches):
    _no_matrices(monkeypatch)
    with pytest.raises(ValueError, match="is above 2048"):
        scan([CheckId.ATHETA], 3, 4100, lambda rec: pytest.fail("delivered a record"))
