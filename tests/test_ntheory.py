import bisect
import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from legdet import ntheory
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
    symbol_array,
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


# window ends up to 10^6: the edges of 0, 1 and 2, squares of primes and
# their neighbours, and 10^k
_SIEVE_POINTS = (0, 1, 2, 3, 48, 49, 50, 960, 961, 10**4, 65536, 994008, 994009, 10**6)


def test_primes_in_range_matches_the_full_sieve_to_10_6():
    for hi in range(61):
        for lo in range(-2, hi + 2):
            assert primes_in_range(lo, hi) == oracles.primes_in_range_by_full_sieve(lo, hi), (lo, hi)
    full = oracles.primes_in_range_by_full_sieve(0, 10**6)
    for hi in _SIEVE_POINTS:
        for lo in _SIEVE_POINTS:
            want = full[bisect.bisect_left(full, lo) : bisect.bisect_right(full, hi)]
            assert primes_in_range(lo, hi) == want, (lo, hi)


def test_primes_in_range_on_seeded_windows_above_10_8():
    rng = random.Random(2024)
    for _ in range(3):
        lo = rng.randrange(10**8, 10**9)
        hi = lo + 10**4
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)], lo


def test_primes_in_range_memory_follows_the_window():
    # a sieve of all of [0, hi] would take 100 MB here
    tracemalloc.start()
    try:
        found = primes_in_range(10**8, 10**8 + 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 551 and peak < 10**6


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
            assert t[a] == oracles.euler_legendre(a, p)
        a = rng.randrange(p)
        assert legendre(a, p) == oracles.euler_legendre(a, p)


def test_legendre_table_frozen_examples():
    assert tuple(legendre_table(5)) == (0, 1, -1, -1, 1)
    assert tuple(legendre_table(3)) == (0, 1, -1)


def test_legendre_table_is_one_read_only_signed_byte_per_symbol():
    vals = legendre_table(13)
    assert isinstance(vals, memoryview) and vals.readonly
    assert vals.format == "b" and vals.itemsize == 1 and len(vals) == vals.nbytes == 13
    assert np.shares_memory(symbol_array(13), np.frombuffer(vals, dtype=np.int8))
    assert vals[2] == -1 and isinstance(vals[2], int)
    with pytest.raises(TypeError):
        vals[2] = 1
    # a slice is a view of the same bytes
    assert isinstance(vals[1:7], memoryview) and list(vals[1:7]) == [1, -1, 1, 1, -1, -1]


@pytest.mark.parametrize("p", primes_in_range(3, 300))
def test_legendre_table_invariants(p):
    t = legendre_table(p)
    assert t[0] == 0
    assert all(v in (-1, 1) for v in t[1:])
    assert t[1] == 1
    assert sum(t) == 0
    assert t[p - 1] == (-1) ** ((p - 1) // 2)
    rng = random.Random(p)
    for _ in range(50):
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert t[a * b % p] == t[a] * t[b]


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
        two = legendre_table(p)[2]
        assert inv.h_neg >= 1 and inv.h_neg % 2 == 1
        assert inv.c_p == (2 - two) * inv.h_neg
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
            assert inv.c_p == 0


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


def test_quad_char_sum_matches_the_loop():
    # the int8 gather against the Python loop it replaced, at every odd
    # prime below 400 and at four near 2,000, with b and c far outside
    # [0, p) as well as inside it
    rng = random.Random(401)
    for p in [*primes_in_range(3, 400), 1999, 2003, 2011, 2017]:
        for _ in range(6):
            b, c = (rng.randint(-(10**20), 10**20) if rng.random() < 0.5 else rng.randrange(p) for _ in range(2))
            assert quad_char_sum(b, c, p) == oracles.quad_char_sum_by_loop(b, c, p), (b, c, p)


def test_quad_char_sum_matches_one_gather_across_chunk_edges():
    # the chunked gathers against one gather over all of x, at the primes
    # just below and just above one and two chunks, where the last chunk is
    # nearly full or holds a few values of x
    rng = random.Random(65536)
    for k in (1, 2):
        edge = k * ntheory._GATHER
        near = primes_in_range(edge - 200, edge + 200)
        for p in (max(q for q in near if q < edge), min(q for q in near if q > edge)):
            for _ in range(3):
                b, c = rng.randint(-(10**20), 10**20), rng.randrange(p)
                assert quad_char_sum(b, c, p) == oracles.quad_char_sum_by_one_gather(b, c, p), (b, c, p)


def test_quad_char_sum_memory_is_one_chunk(fresh_caches):
    # with the 1 MB table built: two int64 arrays of one chunk of x, not 17
    # bytes per unit of p
    p = 1_000_003
    symbol_array(p)
    tracemalloc.start()
    try:
        got = quad_char_sum(3, 5, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == -1 and peak < 2 * 2**20


def test_symbol_array_is_the_table_read_only():
    for p in (3, 5, 101, 103):
        vals = legendre_table(p)
        a = symbol_array(p)
        assert vals.format == "b" and len(vals) == p and vals.readonly
        assert a.dtype == np.int8 and a.tolist() == list(vals)
        assert not a.flags.writeable
        assert np.shares_memory(a, np.frombuffer(vals, dtype=np.int8))


def test_half_range_sums_examples():
    assert half_range_sums(5) == (-1, -2)
    assert half_range_sums(7)[1] == -1
    # S1 is c_p, zero at p ≡ 1 (mod 4)
    assert prime_invariants(5).c_p == prime_invariants(13).c_p == 0


def test_sjk_rearrangement_matches_the_double_sum_below_2000():
    for p in primes_in_range(3, 2000):
        assert half_range_sums(p)[1] == oracles.sjk_double_sum(p), p


def test_half_range_sums_match_the_generator_expressions():
    # the weighted sums over a view of the byte table against the
    # generator expressions over a tuple table they replaced
    for p in [*primes_in_range(3, 2000), 999983, 1000003, 1000033, 1000037]:
        assert half_range_sums(p) == oracles.half_range_sums_by_genexpr(p), p
        assert prime_invariants(p).c_p == oracles.sum_half_by_slice(p), p


def test_counting_identity_to_1000():
    for p in primes_in_range(3, 1000):
        inv = prime_invariants(p)
        t = legendre_table(p)
        n = inv.n
        s2 = sum(k * t[k] for k in range(1, n + 1))
        tail = -2 * s2 if p % 4 == 1 else inv.c_p
        assert inv.d_p == 4 * inv.N - n * n - n * inv.c_p + tail


def test_invariants_reject_composite():
    with pytest.raises(ValueError):
        prime_invariants(15)


def test_prime_invariants_match_counting_oracle_to_20000():
    # below 20,000 each half is one chunk of the window sums
    for p in primes_in_range(3, 20_000):
        got = dataclasses.astuple(prime_invariants(p))
        assert got == oracles.prime_invariants_by_counting(p), p
        assert got == oracles.prime_invariants_by_prefix_list(p), p


def test_prime_invariants_match_counting_oracle_near_10_6():
    pool = primes_in_range(10**6, 10**6 + 400)
    for p in random.Random(2024).sample(pool, 5):
        got = dataclasses.astuple(prime_invariants(p))
        assert got == oracles.prime_invariants_by_counting(p), p
        assert got == oracles.prime_invariants_by_prefix_list(p), p


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_prime_invariants_do_not_depend_on_the_chunk_size(monkeypatch, fresh_caches, chunk):
    # every chunk boundary, a last chunk of one symbol and a half of
    # exactly one or several chunks among them
    monkeypatch.setattr(ntheory, "_CHUNK", chunk)
    for p in primes_in_range(3, 400):
        assert dataclasses.astuple(prime_invariants(p)) == oracles.prime_invariants_by_prefix_list(p), p


def test_prime_invariants_match_the_prefix_list_oracle_near_10_7():
    # 306 chunks per half; the oracle's prefix list peaks near 600 MB here,
    # and the counting oracle's two near 1 GB, so it is left to 10^6
    p = random.Random(2025).choice(primes_in_range(10**7, 10**7 + 200))
    assert dataclasses.astuple(prime_invariants(p)) == oracles.prime_invariants_by_prefix_list(p)


def test_prime_invariants_memory_is_the_byte_table_and_one_chunk(fresh_caches):
    # from a cold table: 1 MB of symbols and one chunk of running sums
    tracemalloc.start()
    try:
        prime_invariants(1_000_003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 10**6, peak


def test_class_number_neg_is_prime_invariants_h_neg_below_10000():
    for p in primes_in_range(7, 10**4 - 1):
        if p % 4 == 3:
            assert class_number_neg(p) == prime_invariants(p).h_neg, p
    # the usage errors: p = 3, a p ≡ 1 (mod 4), and a composite ≡ 3 (mod 4)
    for bad, why in ((3, r"h\(-p\) requires"), (13, r"h\(-p\) requires"), (35, "35 is not an odd prime")):
        with pytest.raises(ValueError, match=why):
            class_number_neg(bad)
