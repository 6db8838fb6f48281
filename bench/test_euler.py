"""Tests of the benchmark's own oracles against published values.

    python3 -m pytest bench/test_euler.py
"""

import random

import pytest

import euler

# d_p for the odd primes below 50 (the table of the paper, also used by the
# package's acceptance suite)
DP_TABLE = {
    3: -1, 5: -2, 7: 1, 11: -5, 13: -2, 17: 0, 19: -13,
    23: 5, 29: -18, 31: 5, 37: -2, 41: -8, 43: -21, 47: 13,
}

# class numbers h(-p) of Q(sqrt(-p)) for the primes p ≡ 3 (mod 4), 7 <= p < 200
H_NEG = {
    7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 59: 3, 67: 1, 71: 7, 79: 5,
    83: 3, 103: 5, 107: 3, 127: 5, 131: 5, 139: 3, 151: 7, 163: 1, 167: 11,
    179: 5, 191: 13, 199: 9,
}

Q = 2**30 + 3  # prime


@pytest.mark.parametrize("p", sorted(DP_TABLE))
def test_dp_table(p):
    assert euler.invariants(p).d_p == DP_TABLE[p]
    assert euler.dp_double_sum(p) == DP_TABLE[p]


@pytest.mark.parametrize("p", sorted(H_NEG))
def test_class_numbers(p):
    inv = euler.invariants(p)
    assert inv.h_neg == H_NEG[p]
    assert inv.c_p == (2 - inv.chi2) * H_NEG[p]


def test_symbols_are_the_squares():
    for p in euler.primes_upto(300)[1:]:
        chi = euler.euler_symbols(p)
        squares = {x * x % p for x in range(1, p)}
        assert {a for a in range(1, p) if chi[a] == 1} == squares
        assert chi[0] == 0 and all(chi[a] == -1 for a in range(1, p) if a not in squares)


def test_composite_is_refused():
    with pytest.raises(euler.OracleError):
        euler.euler_symbols(91)


def test_prime_counts():
    assert len(euler.primes_upto(10**4)) == 1229
    assert len(euler.primes_upto(2 * 10**4)) == 2262
    assert euler.is_prime_trial(Q) and not euler.is_prime_trial(2**30 + 1)


def test_small_invariants():
    inv = euler.invariants(7)
    assert (inv.c_p, inv.d_p, inv.h_neg, inv.q_p) == (1, 1, 1, 1)
    assert euler.invariants(13).h_neg is None and euler.invariants(13).c_p == 0


def test_theorems_hold_on_small_primes():
    for p in euler.primes_upto(2000)[2:]:
        inv = euler.invariants(p)
        assert euler.t13_holds(inv)
        assert euler.conj11_holds(inv)


def test_p13_matrices():
    # det A+ = -169 and charpoly(A+) = x^6 - 27x^4 + 195x^2 - 169 at p = 13
    plus, minus = euler.charpoly_closed_forms(13)
    assert plus == [-169, 0, 195, 0, -27, 0, 1]
    assert minus == [-2197, 0, 507, 0, -39, 0, 1]
    a = euler.half_matrix(13, True)
    assert euler.det_mod(a, Q) == -169 % Q
    assert euler.det_theorem(13, True, None, euler.invariants(13).chi2) == -169
    rng = random.Random(0)
    for _ in range(5):
        x0 = rng.randrange(-10**6, 10**6)
        assert euler.charpoly_value_mod(a, x0, Q) == euler.poly_eval_mod(plus, x0, Q)
        assert euler.charpoly_value_mod(euler.half_matrix(13, False), x0, Q) == euler.poly_eval_mod(minus, x0, Q)


def test_det_theorem_3mod4():
    # det A- = -5 at p = 5; for p ≡ 3 (mod 4) the theorem's sign and power
    # must agree with elimination of the matrix itself
    assert euler.det_theorem(5, False, None, euler.invariants(5).chi2) == -5
    for p in (7, 11, 19, 23):
        inv = euler.invariants(p)
        want = euler.det_theorem(p, True, inv.h_neg, inv.chi2)
        for plus in (True, False):
            assert euler.det_mod(euler.half_matrix(p, plus), Q) == want % Q
