"""Scalar number theory: primality, Legendre symbols, and the half-range
symbol invariants (sum_half, c_p, d_p, q_p, h(-p), N) that drive the matrix
identity checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

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
    """All primes p with lo <= p <= hi, by a byte sieve."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            start = q * q
            sieve[start :: q] = b"\x00" * ((hi - start) // q + 1)
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    _require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@dataclass(frozen=True)
class LegendreTable:
    """All Legendre symbols mod p: vals[a] = (a/p) for 0 <= a < p."""

    p: int
    vals: tuple[int, ...]


def legendre_table(p: int) -> LegendreTable:
    """Symbol table in O(p): mark the (p-1)/2 nonzero squares, rest are -1."""
    _require_odd_prime(p)
    vals = [-1] * p
    vals[0] = 0
    for i in range(1, (p - 1) // 2 + 1):
        vals[i * i % p] = 1
    return LegendreTable(p, tuple(vals))


def factorial_half_mod(p: int) -> int:
    """((p-1)/2)! mod p."""
    _require_odd_prime(p)
    f = 1
    for i in range(2, (p - 1) // 2 + 1):
        f = f * i % p
    return f


def _sum_half(table: LegendreTable) -> int:
    n = (table.p - 1) // 2
    return sum(table.vals[1 : n + 1])


def require_hneg_prime(p: int) -> None:
    """Usage error unless h(-p) is defined here: p ≡ 3 (mod 4) and p > 3."""
    if p % 4 != 3 or p <= 3:
        raise ValueError(f"h(-p) requires a prime p ≡ 3 (mod 4) with p > 3, got {p}")


def _class_number_from_sum(p: int, s: int, two: int) -> int:
    """h(-p) from the half-range sum s = (2 - (2/p)) h(-p), with two = (2/p),
    cross-checked against Mordell's ((p-1)/2)! ≡ (-1)^{(h+1)/2} (mod p)."""
    denom = 2 - two
    if s <= 0 or s % denom != 0:
        raise InternalError(f"character sum {s} not divisible by {denom} at p={p}")
    h = s // denom
    want = 1 if (h + 1) // 2 % 2 == 0 else p - 1
    if factorial_half_mod(p) != want:
        raise InternalError(f"factorial parity check failed for h(-{p})={h}")
    return h


def class_number_neg(p: int) -> int:
    """Class number h(-p) of Q(sqrt(-p)) for a prime p ≡ 3 (mod 4), p > 3.

    Computed from the half-range character sum
        sum_{j=1}^{(p-1)/2} (j/p) = (2 - (2/p)) * h(-p),
    then cross-checked against the independent factorial-sign congruence
    ((p-1)/2)! ≡ (-1)^{(h+1)/2} (mod p) due to Mordell.  Any mismatch between
    the two routes raises InternalError rather than returning silently.
    """
    require_hneg_prime(p)
    table = legendre_table(p)
    return _class_number_from_sum(p, _sum_half(table), table.vals[2])


@dataclass(frozen=True)
class PrimeInvariants:
    """The scalar invariants of an odd prime p, with n = (p-1)/2.

    sum_half  sum_{j=1}^{n} (j/p); zero when p ≡ 1 (mod 4)
    c_p       equals sum_half (and (2-(2/p))h(-p) when p ≡ 3 mod 4, p > 3)
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
    sum_half: int


def prime_invariants(p: int) -> PrimeInvariants:
    """Compute all scalar invariants of p in O(p).

    d_p uses the factorization ((j^2+jk)/p) = (j/p) * ((j+k)/p) and a prefix
    sum over the symbol table, so the double sum collapses to one pass.  N
    comes from the same prefix sums: for 1 <= j <= n the arguments j+1 .. j+n
    never wrap mod p, and (i + pref[i]) / 2 of 1 .. i are residues.
    """
    table = legendre_table(p)
    vals = table.vals
    n = (p - 1) // 2

    pref = list(accumulate(vals))          # pref[i] = sum of vals[0..i]
    half = vals[1 : n + 1]
    upper = pref[n + 1 : 2 * n + 1]
    lower = pref[1 : n + 1]
    d_p = sum(t * (u - l) for t, u, l in zip(half, upper, lower))

    s = pref[n]  # == sum_half, vals[0] = 0
    if p % 4 == 1 and s != 0:
        raise InternalError(f"half-range symbol sum {s} nonzero at p={p} ≡ 1 (mod 4)")
    if (d_p + n) % 4 != 0:
        raise InternalError(f"d_p = {d_p} is not ≡ -{n} (mod 4) at p={p}")

    # N = sum over j of (1 + (j/p))/2 * (n + pref[j+n] - pref[j])/2
    num = n * (n + s) + sum(upper) - sum(lower) + d_p
    if num % 4 != 0:
        raise InternalError(f"pair count numerator {num} is not divisible by 4 at p={p}")
    big_n = num // 4

    h_neg = _class_number_from_sum(p, s, vals[2]) if p % 4 == 3 and p > 3 else None
    q_p = Fraction(vals[2] * (s * s - d_p * d_p + (d_p + n) ** 2), 16)
    return PrimeInvariants(p, n, s, d_p, h_neg, q_p, big_n, s)


def quad_char_sum(b: int, c: int, p: int) -> int:
    """sum_{x=0}^{p-1} ((x^2+bx+c)/p), by direct summation.

    The result is checked against the closed form, p-1 when p divides
    b^2 - 4c and -1 otherwise, before being returned.
    """
    table = legendre_table(p)
    vals = table.vals
    total = sum(vals[(x * x + b * x + c) % p] for x in range(p))
    want = p - 1 if (b * b - 4 * c) % p == 0 else -1
    if total != want:
        raise InternalError(f"quadratic character sum {total} != {want} at (b={b}, c={c}, p={p})")
    return total


def half_range_sums(p: int) -> tuple[int, int, int]:
    """(S1, S2, SJK) with S1 = sum (k/p), S2 = sum k*(k/p) over 1 <= k <= n,
    and SJK = sum_{j,k=1}^{n} ((j+k)/p) evaluated as a direct double sum.

    Asserts the reduction SJK = 2*S2 for p ≡ 1 (mod 4) and SJK = -S1 for
    p ≡ 3 (mod 4) before returning.
    """
    table = legendre_table(p)
    vals = table.vals
    n = (p - 1) // 2
    s1 = sum(vals[k] for k in range(1, n + 1))
    s2 = sum(k * vals[k] for k in range(1, n + 1))
    sjk = sum(vals[j + k] for j in range(1, n + 1) for k in range(1, n + 1))
    want = 2 * s2 if p % 4 == 1 else -s1
    if sjk != want:
        raise InternalError(f"half-range double sum {sjk} != {want} at p={p}")
    return s1, s2, sjk
