import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from legdet.ntheory import (
    class_number_neg,
    factorial_half_mod,
    half_range_sums,
    is_prime,
    legendre,
    legendre_table,
    prime_invariants,
    primes_in_range,
    quad_char_sum,
)

# the fourteen published values of d_p for odd primes below 50
DP_TABLE = {
    3: -1, 5: -2, 7: 1, 11: -5, 13: -2, 17: 0, 19: -13,
    23: 5, 29: -18, 31: 5, 37: -2, 41: -8, 43: -21, 47: 13,
}


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number


@given(st.integers(min_value=1, max_value=100_000))
@settings(max_examples=300)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == oracles.trial_division_is_prime(n)


def test_is_prime_beyond_the_deterministic_bound():
    m89 = 2**89 - 1   # Mersenne prime, larger than the fixed-witness bound
    m107 = 2**107 - 1
    assert is_prime(m89)
    assert is_prime(m107)
    assert not is_prime(m89 * m89)
    assert not is_prime(m89 * m107)


def test_primes_in_range():
    assert primes_in_range(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(14, 16) == []
    assert len(primes_in_range(2, 1000)) == 168


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(2, 7) == 1
    assert legendre(2, 13) == -1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 8)
    with pytest.raises(ValueError):
        legendre(3, 15)
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_legendre_euler_criterion_all_primes_to_10000():
    rng = random.Random(1)
    for p in primes_in_range(3, 10_000):
        t = legendre_table(p)
        for _ in range(100):
            a = rng.randrange(p)
            assert t.vals[a] == oracles.euler_legendre(a, p)
        a = rng.randrange(p)
        assert legendre(a, p) == oracles.euler_legendre(a, p)


def test_legendre_table_frozen_examples():
    assert legendre_table(5).vals == (0, 1, -1, -1, 1)
    assert legendre_table(3).vals == (0, 1, -1)


@pytest.mark.parametrize("p", primes_in_range(3, 300))
def test_legendre_table_invariants(p):
    t = legendre_table(p)
    assert t.vals[0] == 0
    assert all(v in (-1, 1) for v in t.vals[1:])
    assert t.vals[1] == 1
    assert sum(t.vals) == 0
    assert t.vals[p - 1] == (-1) ** ((p - 1) // 2)
    rng = random.Random(p)
    for _ in range(50):
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert t.vals[a * b % p] == t.vals[a] * t.vals[b]


def test_class_number_examples():
    assert class_number_neg(7) == 1
    assert class_number_neg(23) == 3
    assert class_number_neg(47) == 5


def test_class_number_matches_form_counting():
    for p in primes_in_range(7, 500):
        if p % 4 == 3:
            assert class_number_neg(p) == oracles.h_neg_by_forms(p)


def test_class_number_rejects_wrong_inputs():
    for bad in (3, 13, 9, 2):
        with pytest.raises(ValueError):
            class_number_neg(bad)


def test_cp_equals_class_number_formula_to_10000():
    for p in primes_in_range(5, 10_000):
        if p % 4 != 3:
            continue
        inv = prime_invariants(p)
        two = legendre_table(p).vals[2]
        assert inv.h_neg >= 1 and inv.h_neg % 2 == 1
        assert inv.c_p == (2 - two) * inv.h_neg
        assert inv.sum_half == inv.c_p
        # factorial-sign congruence, recomputed here
        want = 1 if (inv.h_neg + 1) // 2 % 2 == 0 else p - 1
        assert factorial_half_mod(p) == want


def test_dp_published_values():
    for p, want in DP_TABLE.items():
        assert prime_invariants(p).d_p == want


def test_dp_against_double_sum_oracle_to_500():
    for p in primes_in_range(3, 500):
        assert prime_invariants(p).d_p == oracles.dp_double_sum(p)


def test_dp_congruence_and_sum_half_to_10000():
    for p in primes_in_range(3, 10_000):
        inv = prime_invariants(p)
        assert (inv.d_p + inv.n) % 4 == 0
        if p % 4 == 1:
            assert inv.sum_half == 0


def test_qp_values():
    assert prime_invariants(7).q_p == 1
    assert prime_invariants(11).q_p == 1
    # (2/47) = 1, c = 5, d = 13, n = 23: (25 - 169 + 36^2) / 16 = 72
    assert prime_invariants(47).q_p == 72


def test_quad_char_sum_examples():
    assert quad_char_sum(0, 0, 7) == 6
    assert quad_char_sum(0, -1, 5) == -1
    assert quad_char_sum(3, 1, 11) == -1


def test_quad_char_sum_closed_form_to_1000():
    rng = random.Random(99)
    for p in primes_in_range(3, 1000):
        inv4 = pow(4, -1, p)
        for i in range(50):
            b = rng.randint(-2 * p, 2 * p)
            if i % 5 == 0:
                c = b * b * inv4 % p  # lands in the p | b^2 - 4c branch
            else:
                c = rng.randint(-2 * p, 2 * p)
            got = quad_char_sum(b, c, p)
            want = p - 1 if (b * b - 4 * c) % p == 0 else -1
            assert got == want


def test_half_range_sums_examples():
    s1, s2, sjk = half_range_sums(5)
    assert (s1, s2, sjk) == (0, -1, -2)
    assert half_range_sums(7)[2] == -1
    assert half_range_sums(13)[0] == 0


def test_counting_identity_to_1000():
    for p in primes_in_range(3, 1000):
        inv = prime_invariants(p)
        t = legendre_table(p)
        n = inv.n
        s2 = sum(k * t.vals[k] for k in range(1, n + 1))
        tail = -2 * s2 if p % 4 == 1 else inv.sum_half
        assert inv.d_p == 4 * inv.N - n * n - n * inv.sum_half + tail


def test_invariants_reject_composite():
    with pytest.raises(ValueError):
        prime_invariants(15)


def test_prime_invariants_match_counting_oracle_to_20000():
    for p in primes_in_range(3, 20_000):
        got = dataclasses.astuple(prime_invariants(p))
        assert got == oracles.prime_invariants_by_counting(p), p


def test_prime_invariants_match_counting_oracle_near_10_6():
    pool = primes_in_range(10**6, 10**6 + 400)
    for p in random.Random(2024).sample(pool, 5):
        got = dataclasses.astuple(prime_invariants(p))
        assert got == oracles.prime_invariants_by_counting(p), p


def test_class_number_neg_routes_agree_with_prime_invariants():
    for p in primes_in_range(7, 3000):
        if p % 4 == 3:
            assert class_number_neg(p) == prime_invariants(p).h_neg
