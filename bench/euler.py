"""Independent oracles for the benchmark's correctness checks.

Every value here is derived from Euler's criterion, (a/p) = a^((p-1)/2) mod p,
and from the statements of the paper.  Nothing is imported from legdet, and
no algorithm is shared with it: the program marks squares to build its
symbol table, this module exponentiates; the program reads h(-p) off the
half-range sum, this module uses Dirichlet's formula.

Symbol vectors are int64 numpy arrays.  Products of two residues stay below
2^62 while p < 2^31, which covers every modulus used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_INT64_SAFE = 1 << 31


class OracleError(Exception):
    """An oracle's own consistency check failed: the oracle, not the program
    under test, is wrong, so no verdict can be given."""


def euler_symbols(p: int) -> np.ndarray:
    """chi[a] = (a/p) for 0 <= a < p, by vectorised Euler's criterion."""
    if not 2 < p < _INT64_SAFE or p % 2 == 0:
        raise ValueError(f"need an odd p below 2^31, got {p}")
    base = np.arange(p, dtype=np.int64)
    acc = np.ones(p, dtype=np.int64)
    e = (p - 1) // 2
    while e:
        if e & 1:
            acc = acc * base % p
        base = base * base % p
        e >>= 1
    acc[0] = 0
    if not np.all((acc[1:] == 1) | (acc[1:] == p - 1)):
        raise OracleError(f"{p} is not prime: Euler's criterion gave a value other than ±1")
    return np.where(acc == p - 1, -1, acc)


def euler_symbol(a: int, p: int) -> int:
    """(a/p) for one a, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def primes_upto(hi: int) -> list[int]:
    """Primes 2 <= q <= hi by a boolean numpy sieve."""
    if hi < 2:
        return []
    is_p = np.ones(hi + 1, dtype=bool)
    is_p[:2] = False
    for q in range(2, math.isqrt(hi) + 1):
        if is_p[q]:
            is_p[q * q :: q] = False
    return np.flatnonzero(is_p).tolist()


def is_prime_trial(m: int) -> bool:
    if m < 2:
        return False
    return all(m % q for q in range(2, math.isqrt(m) + 1))


@dataclass(frozen=True)
class Invariants:
    """The scalar invariants of an odd prime p, n = (p-1)/2, as the paper
    defines them.  h_neg is None unless p ≡ 3 (mod 4) and p > 3."""

    p: int
    n: int
    chi2: int
    sum_half: int
    c_p: int
    d_p: int
    h_neg: int | None
    q_p: Fraction
    N: int


def dirichlet_h(p: int, chi: np.ndarray) -> int:
    """h(-p) = -(1/p) sum_{a=1}^{p-1} a (a/p), for p ≡ 3 (mod 4), p > 3."""
    s = int(np.dot(np.arange(p, dtype=np.int64), chi))
    if s >= 0 or s % p:
        raise OracleError(f"Dirichlet sum {s} at p={p} is not a negative multiple of p")
    return -s // p


def invariants(p: int) -> Invariants:
    chi = euler_symbols(p)
    n = (p - 1) // 2
    chi2 = int(chi[2 % p])
    half = chi[1 : n + 1]
    sum_half = int(half.sum())
    # prefix[i] = chi[0] + ... + chi[i-1]; the inner sum over k of chi[j+k]
    # never wraps because j + k <= 2n = p - 1
    prefix = np.concatenate(([0], np.cumsum(chi)))
    j = np.arange(1, n + 1)
    inner = prefix[j + n + 1] - prefix[j + 1]
    d_p = int(np.dot(half, inner))
    res = np.concatenate(([0], np.cumsum(chi == 1)))
    N = int((res[j + n + 1] - res[j + 1])[half == 1].sum())
    h_neg = None
    c_p = sum_half
    if p % 4 == 3 and p > 3:
        h_neg = dirichlet_h(p, chi)
        c_p = (2 - chi2) * h_neg
        if c_p != sum_half:
            raise OracleError(f"class number formula fails at p={p}: {c_p} != {sum_half}")
    elif p % 4 == 1 and sum_half != 0:
        raise OracleError(f"half-range sum {sum_half} nonzero at p={p} ≡ 1 (mod 4)")
    q_p = Fraction(chi2 * (c_p * c_p - d_p * d_p + (d_p + n) ** 2), 16)
    return Invariants(p, n, chi2, sum_half, c_p, d_p, h_neg, q_p, N)


def dp_double_sum(p: int) -> int:
    """d_p as the literal O(n^2) double sum of ((j^2 + jk)/p)."""
    n = (p - 1) // 2
    return sum(
        euler_symbol(j * j + j * k, p) for j in range(1, n + 1) for k in range(1, n + 1)
    )


def t13_holds(inv: Invariants) -> bool:
    """Theorem 1.3: d_p ≡ -n (mod 4)."""
    return (inv.d_p + inv.n) % 4 == 0


def conj11_holds(inv: Invariants) -> bool:
    """Conjecture 1.1 for p > 3:
    p ≡ 1 (mod 8): d_p ≡ 4(1 - (-1)^((p-1)/8)) (mod 16);
    p ≡ 5 (mod 8): d_p ≡ -2 (mod 16);
    p ≡ 3 (mod 4): d_p ≡ (-1)^((h(-p)-1)/2) c_p (mod 8)."""
    p, d = inv.p, inv.d_p
    if p % 8 == 1:
        return (d - 4 * (1 - (-1) ** ((p - 1) // 8))) % 16 == 0
    if p % 8 == 5:
        return (d + 2) % 16 == 0
    return (d - (-1) ** ((inv.h_neg - 1) // 2) * inv.c_p) % 8 == 0


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def half_matrix(p: int, plus: bool, chi: np.ndarray | None = None) -> np.ndarray:
    """A+ = [((j+k)/p) + ((j-k)/p)] or A- = [((j+k)/p) - ((j-k)/p)], 1 <= j,k <= n."""
    if chi is None:
        chi = euler_symbols(p)
    n = (p - 1) // 2
    j = np.arange(1, n + 1)[:, None]
    k = np.arange(1, n + 1)[None, :]
    diff = chi[(j - k) % p]
    return chi[j + k] + (diff if plus else -diff)


def det_mod(a: np.ndarray, q: int) -> int:
    """det(a) mod q for a prime q < 2^31, by Gaussian elimination."""
    if not q < _INT64_SAFE:
        raise ValueError(f"modulus {q} too large for int64 elimination")
    m = a.astype(np.int64) % q
    n = m.shape[0]
    d = 1
    for c in range(n):
        nz = np.flatnonzero(m[c:, c])
        if nz.size == 0:
            return 0
        r = c + int(nz[0])
        if r != c:
            m[[c, r]] = m[[r, c]]
            d = -d
        piv = int(m[c, c])
        d = d * piv % q
        f = m[c + 1 :, c] * pow(piv, -1, q) % q
        m[c + 1 :, c:] = (m[c + 1 :, c:] - f[:, None] * m[c, c:] % q) % q
    return d % q


def det_theorem(p: int, plus: bool, h_neg: int | None, chi2: int) -> int:
    """det A± as Theorem 1.1 gives it.
    p ≡ 1 (mod 4): det A+ = (2/p) p^((p-5)/4), det A- = (2/p) p^((p-1)/4);
    p ≡ 3 (mod 4), p > 3: det A+ = det A- = (-1)^((h(-p)-1)/2) p^((p-3)/4)."""
    if p % 4 == 1:
        return chi2 * p ** ((p - 5) // 4 if plus else (p - 1) // 4)
    return (-1) ** ((h_neg - 1) // 2) * p ** ((p - 3) // 4)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _x2_minus_p_pow(p: int, m: int) -> list[int]:
    """Coefficients, constant first, of (x^2 - p)^m by the binomial theorem."""
    out = [0] * (2 * m + 1)
    for i in range(m + 1):
        out[2 * i] = math.comb(m, i) * (-p) ** (m - i)
    return out


def charpoly_closed_forms(p: int) -> tuple[list[int], list[int]]:
    """For p ≡ 1 (mod 4): charpoly(A+) = (x^2-1)(x^2-p)^((p-5)/4) and
    charpoly(A-) = (x^2-p)^((p-1)/4), coefficients constant first."""
    if p % 4 != 1:
        raise ValueError(f"closed forms need p ≡ 1 (mod 4), got {p}")
    return (
        _poly_mul([-1, 0, 1], _x2_minus_p_pow(p, (p - 5) // 4)),
        _x2_minus_p_pow(p, (p - 1) // 4),
    )


def poly_eval_mod(coeffs: list[int], x: int, q: int) -> int:
    """Value mod q of the polynomial with the given coefficients, constant first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def charpoly_value_mod(a: np.ndarray, x0: int, q: int) -> int:
    """det(x0 I - a) mod q: the characteristic polynomial of a at x0."""
    return det_mod(x0 * np.eye(a.shape[0], dtype=np.int64) - a, q)
