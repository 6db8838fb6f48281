"""Acceptance suite: every criterion at its stated range and tolerance, one
printed pass/fail line per criterion.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete."""

import os
import time

from legdet.charmat import build
from legdet.exactla import det
from legdet.ntheory import prime_invariants, primes_in_range
from legdet.verify import (
    CheckId,
    check,
    exit_code_for,
    mdl_random_suite,
    scan,
    t31_random_suite,
)

DP_TABLE = {
    3: -1, 5: -2, 7: 1, 11: -5, 13: -2, 17: 0, 19: -13,
    23: 5, 29: -18, 31: 5, 37: -2, 41: -8, 43: -21, 47: 13,
}

_JOBS = os.cpu_count() or 1


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_dp_table():
    start = time.perf_counter()
    got = {p: prime_invariants(p).d_p for p in primes_in_range(3, 49)}
    elapsed = time.perf_counter() - start
    ok = got == DP_TABLE and elapsed < 1.0
    _report(1, "fourteen d_p values for odd p < 50", ok, f"{elapsed * 1000:.0f} ms")


def test_criterion_02_charpolys_and_dets_1mod4():
    start = time.perf_counter()
    ok = True
    for p in primes_in_range(5, 197):
        if p % 4 != 1:
            continue
        ok = ok and check(CheckId.T11_CHARPOLY_1MOD4, p).passed
        ok = ok and check(CheckId.T11_DET_1MOD4, p).passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    _report(2, "charpolys and determinants of A+/A-, p ≡ 1 (mod 4) <= 197", ok,
            f"{elapsed:.1f} s")


def test_criterion_03_dets_3mod4():
    start = time.perf_counter()
    ok = True
    for p in primes_in_range(7, 199):
        if p % 4 != 3:
            continue
        ok = ok and check(CheckId.T11_DET_3MOD4, p).passed
        ok = ok and check(CheckId.MORDELL, p).passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    _report(3, "|A+| = |A-| = ±p^((p-3)/4) with factorial cross-check, p ≡ 3 (mod 4) <= 199",
            ok, f"{elapsed:.1f} s")


def test_criterion_04_four_parameter_closed_forms():
    ok = True
    for p in primes_in_range(5, 101):
        if p % 4 == 1:
            r = check(CheckId.T12_I, p)
            ok = ok and r.passed and r.witness["base_dets_match"]
        else:
            r = check(CheckId.T12_II, p)
            ok = ok and r.passed and r.witness["base_dets_match"]
            ok = ok and check(CheckId.COR_AFTER_T12, p).passed
    # base determinant relations alone continue to hold up to 199
    from legdet.charmat import at
    from legdet.verify import _aplus_samples, _rng, _sample_tuples

    for p in primes_in_range(103, 199):
        if p % 4 != 3:
            continue
        inv = prime_invariants(p)
        sign = -1 if (inv.h_neg - 1) // 2 % 2 else 1
        d = sign * p ** ((p - 3) // 4)
        e = (d // p) * (inv.n + 2 * (inv.d_p - inv.c_p**2))
        pd = at(p).aplus_expansion
        samples = _aplus_samples(p, _sample_tuples(_rng(0, "T12_II", p)))
        ok = ok and len(samples) == 20
        ok = ok and all(pd.alpha * d == pd.scaled(*pt) for pt, d in samples)
        ok = ok and (pd.alpha, pd.alpha1, pd.alpha2, pd.alpha3, pd.alpha4) == (
            d, d * (1 - inv.c_p), d * (1 - inv.n), d + e, d * (1 - inv.c_p),
        )
    _report(4, "two-layer 4-parameter closed forms (p <= 101) and base determinant relations (p <= 199)", ok)


def test_criterion_05_qp_form():
    integral = True
    ok = True
    for p in primes_in_range(7, 199):
        if p % 4 != 3:
            continue
        r = check(CheckId.EQ_38II_QP, p)
        ok = ok and r.passed
        integral = integral and r.witness["q_p_integral"]
    _report(5, "z = 0 closed form via q_p, p ≡ 3 (mod 4) <= 199", ok,
            f"q_p integral for all scanned p: {integral}")


def test_criterion_06_dp_mod4_scan_to_100000():
    start = time.perf_counter()
    summary = scan([CheckId.T13_DPMOD4], 3, 100_000, lambda rec: None, jobs=_JOBS)
    elapsed = time.perf_counter() - start
    ok = summary.failed == 0 and summary.passed == summary.primes and elapsed < 300
    _report(6, "d_p ≡ -(p-1)/2 (mod 4) for all odd p < 1e5", ok,
            f"{summary.primes} primes, {elapsed:.0f} s, jobs={_JOBS}")


def test_criterion_07_conjecture_scan_to_10000():
    summary = scan([CheckId.CONJ11_DP], 3, 10_000, lambda rec: None, jobs=_JOBS)
    code = exit_code_for(name for _, name in summary.failures)
    ok = summary.failed == 0 and code == 0
    _report(7, "d_p congruence conjecture: no counterexample below 1e4", ok,
            f"{summary.passed} primes checked")


def test_criterion_08_lemma_suite():
    ok = True
    for p in primes_in_range(3, 199)[:20]:
        ok = ok and check(CheckId.L21_QUADSUM, p).passed
    for p in primes_in_range(3, 199):
        ok = ok and check(CheckId.L22_GRAM, p).passed
        ok = ok and check(CheckId.L41_SUMS, p).passed
        ok = ok and check(CheckId.EQ_DCOUNT, p).passed
        if p % 4 == 1:
            ok = ok and check(CheckId.L23_EIGVECS, p).passed
            ok = ok and check(CheckId.L24_EIGSPACE, p).passed
        else:
            ok = ok and check(CheckId.ATHETA, p).passed
            ok = ok and check(CheckId.EQ_DP_U1AU0, p).passed
    _report(8, "quadratic sum, Gram, eigenvector, theta, adjugate and counting identities, p <= 199", ok)


def test_criterion_09_spectral_claims():
    ok = True
    for p in primes_in_range(7, 199):
        if p % 4 != 3:
            continue
        ok = ok and check(CheckId.L25_AP_NEG, p).passed
        r = check(CheckId.L25_EIGS, p)
        ok = ok and r.passed and r.witness["product_checked"]
    _report(9, "|A_p| < 0, lambda_n = -1, eigenvalue product = |A_p| exactly, 7 <= p <= 199", ok)


def test_criterion_10_random_suites():
    t31 = t31_random_suite(count=1000, seed=0)
    mdl = mdl_random_suite(count=1000, seed=0)
    ok = t31.passed and mdl.passed
    _report(10, "1000 seeded random instances each: expansion and rank-update lemma", ok)


def test_criterion_11_unit_coefficient_forms():
    ok = True
    for p in primes_in_range(5, 61):
        ok = ok and check(CheckId.SUN_C31_I, p).passed
        ok = ok and check(CheckId.SUN_C31_II, p).passed
    # spot value: at p = 5 the closed form is -4(5 b x + a (wx - (y+1)(z+1)))
    # with (a, b) = (1/2, 1/2), so the base determinant is -4 * (-1/2) = 2
    ok = ok and det(build("sun_plus", 5)) == 2
    _report(11, "(n+1)-square unit-coefficient closed forms, 5 <= p <= 61", ok)
