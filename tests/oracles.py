"""Brute-force reference implementations used only by the tests.

Each function here is an independent route to a quantity the library
computes a faster or structurally different way; none of them share code
with the package.
"""

import math
from fractions import Fraction
from itertools import accumulate


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def euler_legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def dp_double_sum(p: int) -> int:
    """d_p as the literal O(p^2) double sum of ((j^2 + jk)/p)."""
    n = (p - 1) // 2
    return sum(
        euler_legendre(j * j + j * k, p)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    )


def h_neg_by_forms(p: int) -> int:
    """Class number of discriminant -p (p ≡ 3 mod 4) by counting reduced
    positive-definite forms: |b| <= a <= c, b >= 0 when |b| = a or a = c."""
    count = 0
    a = 1
    while 3 * a * a <= p:
        for b in range(-a, a + 1):
            num = b * b + p
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            count += 1
        a += 1
    return count


def det_cofactor(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def pell_minimal_pm4(p: int, cap: int = 1_000_000):
    """Smallest (x, y), y >= 1, with x^2 - p y^2 = ±4, or None below cap.
    For a fixed y the -4 branch gives the smaller element, so it is tried
    first; increasing y increases (x + y sqrt(p))/2."""
    for y in range(1, cap + 1):
        for delta in (-4, 4):
            t = p * y * y + delta
            if t >= 0:
                x = math.isqrt(t)
                if x * x == t:
                    return x, y
    return None


def prime_invariants_by_counting(p: int) -> tuple:
    """(p, n, c_p, d_p, h_neg, q_p, N, sum_half) with N counted from a second
    prefix list of the +1 symbols, and h(-p) by the half-range sum, both
    routes checked, as legdet's prime_invariants computed them before N came
    from the d_p prefix sums."""
    vals = [-1] * p
    vals[0] = 0
    for i in range(1, (p - 1) // 2 + 1):
        vals[i * i % p] = 1
    n = (p - 1) // 2

    pref = list(accumulate(vals))
    ones = list(accumulate(1 if v == 1 else 0 for v in vals))

    half = vals[1 : n + 1]
    upper_s = pref[n + 1 : 2 * n + 1]
    lower_s = pref[1 : n + 1]
    d_p = sum(t * (u - l) for t, u, l in zip(half, upper_s, lower_s))

    upper_c = ones[n + 1 : 2 * n + 1]
    lower_c = ones[1 : n + 1]
    big_n = sum(u - l for t, u, l in zip(half, upper_c, lower_c) if t == 1)

    s = pref[n] - pref[0]
    assert p % 4 != 1 or s == 0
    assert (d_p + n) % 4 == 0

    h_neg = None
    if p % 4 == 3 and p > 3:
        denom = 2 - vals[2]
        assert s > 0 and s % denom == 0
        h_neg = s // denom
        f = 1
        for i in range(2, n + 1):
            f = f * i % p
        assert f == (1 if (h_neg + 1) // 2 % 2 == 0 else p - 1)
    q_p = Fraction(vals[2] * (s * s - d_p * d_p + (d_p + n) ** 2), 16)
    return p, n, s, d_p, h_neg, q_p, big_n, s


def half_integral_unit_search(p: int, y1: int, cap: int):
    """The half-integral unit search of legdet's fundamental_unit, run for
    any prime p ≡ 1 (mod 4) whose smallest integral unit x1 + y1 sqrt(p) has
    norm -1: (a, b) with a^2 - p b^2 = ±4, a and b odd, or None once b passes
    the bound p b^3 - 3b <= 2 y1.  Raises OverflowError after `cap` values
    of b."""
    b = 1
    for _ in range(cap):
        if p * b**3 - 3 * b > 2 * y1:
            return None
        for delta in (-4, 4):
            aa = p * b * b + delta
            a = math.isqrt(aa)
            if a * a == aa and a % 2 == 1:
                return a, b
        b += 2
    raise OverflowError(f"search at p={p} passed {cap} steps")


def _icbrt(n: int) -> int:
    lo, hi = 0, 1 << (n.bit_length() // 3 + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**3 <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def half_integral_unit_by_trace(p: int, x1: int):
    """The same answer in O(1): a unit eps = (a + b sqrt(p))/2 of norm -1
    with eps^3 = x1 + y1 sqrt(p) has trace a with a^3 + 3a = 2 x1, and then
    p b^2 = a^2 + 4.  Returns (a, b) or None."""
    a = _icbrt(2 * x1)
    if a**3 + 3 * a != 2 * x1 or (a * a + 4) % p:
        return None
    b = math.isqrt((a * a + 4) // p)
    return (a, b) if p * b * b == a * a + 4 else None
