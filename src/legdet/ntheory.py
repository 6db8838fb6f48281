"""Scalar number theory: primality, Legendre symbols, and the half-range
symbol invariants (c_p, d_p, q_p, h(-p), N) that drive the matrix identity
checks.

The symbol table of p is one byte per symbol: `legendre_table` returns a
read-only signed-byte memoryview of it, which indexes, slices (without a
copy) and iterates as Python ints, and `symbol_array` views the same bytes
as a read-only int8 array.  The O(p) sums read the view through C-level
iterators (`accumulate`, `map`, `sum`), `prime_invariants` a bounded chunk
at a time, so they hold no O(p) list and no per-symbol Python object: at
p = 1,000,003 the table is 1 MB and a cold `prime_invariants` peaks at
about 2.3 MB under tracemalloc.  This module keeps the last prime's table
and primality proof only; p's record (`charmat.at`) keeps the sums."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from operator import mul, sub

import numpy as np

from .errors import InternalError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10**24,
# which covers the full 64-bit range the CLI accepts.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _mr_witness(n: int, d: int, s: int, a: int) -> bool:
    """True if a proves n composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 3.3e24 (covers 64-bit inputs);
    beyond that, 32 extra reproducibly-seeded Miller-Rabin rounds."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if any(_mr_witness(n, d, s, a) for a in _MR_BASES):
        return False
    if n >= _MR_DETERMINISTIC_BOUND:
        import random

        rng = random.Random(n)
        if any(_mr_witness(n, d, s, rng.randrange(2, n - 1)) for _ in range(32)):
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by a byte sieve of [lo, hi] alone and
    the primes up to sqrt(hi) (Bays and Hudson, BIT 17, 1977)."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)  # base[q]: no prime below q divides q
    window = bytearray([1]) * (hi - lo + 1)  # window[i]: lo + i
    for q in range(2, root + 1):
        if base[q]:
            base[q * q :: q] = bytes(len(range(q * q, root + 1, q)))
            start = max(q * q, -(-lo // q) * q)  # a smaller multiple has a smaller factor
            window[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return list(compress(range(lo, hi + 1), window))


@lru_cache(maxsize=1)
def require_odd_prime(p: int) -> None:
    """Usage error unless p is an odd prime; the last p that passed is kept."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


#: Symbol tables, so prime checks and ranges, stop below this p.  The limit
#: comes from `quad_char_sum`'s int64 gather: x (x + b) + c < 2p^2 must stay
#: below 2^63, which holds for every p < 2^31.  A table costs one byte per
#: entry, so the largest one, just below the limit, takes 2 GiB.
TABLE_P_LIMIT = 2**31


@lru_cache(maxsize=1)
def legendre_table(p: int) -> memoryview:
    """All Legendre symbols mod p, t[a] = (a/p) for 0 <= a < p, in O(p):
    mark the (p-1)/2 nonzero squares, rest are -1.  The symbols are built in
    a bytearray, -1 stored as 0xff, and handed out as one read-only
    signed-byte view of it: it indexes and iterates as Python ints -1, 0 and
    1, a slice is a view of the same bytes, not a copy, and it takes one byte
    per entry, 1 MB at p = 10^6 and 2 GiB just below TABLE_P_LIMIT = 2^31,
    the bound that `quad_char_sum`'s int64 gather, x (x + b) + c < 2p^2 <
    2^63, puts on p.  Cached for the last prime only: callers visit one prime
    at a time, and a larger cache would keep O(p) tables alive across a
    whole range.  p >= 2^31 is refused before anything is allocated."""
    if p >= TABLE_P_LIMIT:
        raise ValueError(f"p = {p} is too large for an O(p) symbol table (need p < 2^31)")
    require_odd_prime(p)
    table = bytearray(b"\xff") * p
    table[0] = 0
    for i in range(1, (p - 1) // 2 + 1):
        table[i * i % p] = 1
    return memoryview(table).cast("b").toreadonly()


def symbol_array(p: int) -> np.ndarray:
    """`legendre_table(p)` as an int8 array for numpy gathers: a view of the
    table's own bytes, not a copy, and read-only because the view is."""
    return np.asarray(legendre_table(p), dtype=np.int8)


def factorial_half_mod(p: int) -> int:
    """((p-1)/2)! mod p."""
    require_odd_prime(p)
    f = 1
    for i in range(2, (p - 1) // 2 + 1):
        f = f * i % p
    return f


def require_hneg_prime(p: int) -> None:
    """Usage error unless h(-p) is defined here: p ≡ 3 (mod 4) and p > 3."""
    if p % 4 != 3 or p <= 3:
        raise ValueError(f"h(-p) requires a prime p ≡ 3 (mod 4) with p > 3, got {p}")


def mordell_residue(p: int, h: int) -> int:
    """((p-1)/2)! mod p as Mordell's congruence predicts it from h = h(-p):
    (-1)^{(h+1)/2}, as 1 or p-1."""
    return 1 if (h + 1) // 2 % 2 == 0 else p - 1


def _class_number_from_sum(p: int, s: int, two: int) -> int:
    """h(-p) from the half-range sum s = (2 - (2/p)) h(-p), with two = (2/p)."""
    denom = 2 - two
    if s <= 0 or s % denom != 0:
        raise InternalError(f"character sum {s} not divisible by {denom} at p={p}")
    return s // denom


def class_number_neg(p: int) -> int:
    """Class number h(-p) of Q(sqrt(-p)) for a prime p ≡ 3 (mod 4), p > 3.

    Read from `prime_invariants`, which computes it from the half-range
    character sum
        c_p = sum_{j=1}^{(p-1)/2} (j/p) = (2 - (2/p)) * h(-p);
    a sum that is not a positive multiple of 2 - (2/p) raises InternalError.
    Mordell's congruence ((p-1)/2)! ≡ (-1)^{(h+1)/2} (mod p), an independent
    route to the parity of h, is asserted by the MORDELL check
    (`mordell_residue`).
    """
    require_hneg_prime(p)
    return prime_invariants(p).h_neg


@dataclass(frozen=True)
class PrimeInvariants:
    """The scalar invariants of an odd prime p, with n = (p-1)/2.

    c_p       the half sum sum_{j=1}^{n} (j/p): zero when p ≡ 1 (mod 4), and
              (2-(2/p))h(-p) when p ≡ 3 (mod 4), p > 3; a scan record's
              "sum_half" key is written from it
    d_p       sum_{j,k=1}^{n} ((j^2+jk)/p)
    h_neg     h(-p) for p ≡ 3 (mod 4), p > 3; None otherwise
    q_p       (2/p) * (c_p^2 - d_p^2 + (d_p+n)^2) / 16, as an exact rational
    N         number of pairs 1 <= j,k <= n with (j/p) = 1 = ((j+k)/p)
    """

    p: int
    n: int
    c_p: int
    d_p: int
    h_neg: int | None
    q_p: Fraction
    N: int


#: Symbols of each half that one step of `prime_invariants` reads: the
#: step's list of running sums is its only allocation that grows with it.
_CHUNK = 1 << 14


def prime_invariants(p: int) -> PrimeInvariants:
    """Compute all scalar invariants of p in O(p).

    d_p uses the factorization ((j^2+jk)/p) = (j/p) * ((j+k)/p), so the
    double sum is sum_j (j/p) W_j over the windows W_j = P(j+n) - P(j) of
    the prefix sums P(i) = (0/p) + ... + (i/p).  With s = sum_{i=1}^{n}
    (i/p) and D(j) = sum_{i=1}^{j} (((n+i)/p) - (i/p)), W_j = s + D(j), so
    d_p = s^2 + sum_j (j/p) D(j) and sum_j W_j = n s + sum_j D(j): both
    run over j in chunks of _CHUNK, with D carried from chunk to chunk.
    N comes from the same windows: for 1 <= j <= n the arguments j+1 .. j+n
    never wrap mod p, and (i + P(i)) / 2 of 1 .. i are residues.
    """
    vals = legendre_table(p)
    n = (p - 1) // 2

    s = dot = windows = carry = 0  # carry = D(j) for the last j read
    for lo in range(1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        half = vals[lo:hi]
        run = list(accumulate(map(sub, vals[lo + n : hi + n], half)))  # D(j) - carry
        part = sum(half)
        s += part
        dot += sum(map(mul, half, run)) + carry * part
        windows += sum(run) + carry * len(run)
        carry += run[-1]
    d_p = s * s + dot
    windows += n * s  # sum_j W_j

    # N = sum over j of (1 + (j/p))/2 * (n + W_j)/2
    num = n * (n + s) + windows + d_p
    if num % 4 != 0:
        raise InternalError(f"pair count numerator {num} is not divisible by 4 at p={p}")
    big_n = num // 4

    h_neg = _class_number_from_sum(p, s, vals[2]) if p % 4 == 3 and p > 3 else None
    q_p = Fraction(vals[2] * (s * s - d_p * d_p + (d_p + n) ** 2), 16)
    return PrimeInvariants(p, n, s, d_p, h_neg, q_p, big_n)


#: Values of x that one step of `quad_char_sum` gathers for: its two int64
#: arrays, x and the indices, take 1 MB together, whatever p.
_GATHER = 1 << 16


def quad_char_sum(b: int, c: int, p: int) -> int:
    """sum_{x=0}^{p-1} ((x^2+bx+c)/p), as gathers from `symbol_array`, one
    per chunk of at most _GATHER values of x.  With b and c reduced mod p,
    x (x + b) + c is below 2p^2 < 2^63 for every p a table allows."""
    table = symbol_array(p)
    b, c = b % p, c % p
    total = 0
    for lo in range(0, p, _GATHER):
        x = np.arange(lo, min(lo + _GATHER, p), dtype=np.int64)
        idx = x + b
        idx *= x
        idx += c
        idx %= p
        total += int(table[idx].sum(dtype=np.int64))
    return total


def half_range_sums(p: int) -> tuple[int, int]:
    """(S2, SJK) with S2 = sum k*(k/p) over 1 <= k <= n, and SJK =
    sum_{j,k=1}^{n} ((j+k)/p), summed over m = j + k as sum_{m=2}^{2n} (m/p)
    (n - |m - n - 1|), n - |m - n - 1| being the number of pairs with
    j + k = m: an exact rearrangement of the double sum, in O(p), not the
    lemma that L41_SUMS checks.  Each is a weighted sum over a view of the
    table, so nothing of size p is allocated.  S1 = sum (k/p) is
    `prime_invariants`' c_p; p's record (`charmat.at`) keeps both, so
    L41_SUMS and EQ_DCOUNT read one computation."""
    vals = legendre_table(p)
    n = (p - 1) // 2
    s2 = sum(map(mul, range(1, n + 1), vals[1 : n + 1]))
    # m = 2 .. n+1 has m - 1 pairs, m = n+2 .. 2n has 2n + 1 - m
    sjk = sum(map(mul, range(1, n + 1), vals[2 : n + 2]))
    sjk += sum(map(mul, range(n - 1, 0, -1), vals[n + 2 : 2 * n + 1]))
    return s2, sjk
