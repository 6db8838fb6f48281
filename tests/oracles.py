"""Brute-force reference implementations used only by the tests.

Each function here is an independent route to a quantity the library
computes a faster or structurally different way; none of them share code
with the package, except that the old realquad route returns its units as
legdet's `QuadElem`, and that the modular solve (`adjugate_crt`) takes its
moduli, CRT and Hadamard bound, and det(a) when it is not given, from
`legdet.exactla`.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from legdet import exactla
from legdet.errors import InternalError
from legdet.realquad import QuadElem


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def primes_in_range_by_full_sieve(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by a byte sieve of all of [0, hi]."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            start = q * q
            sieve[start :: q] = b"\x00" * ((hi - start) // q + 1)
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


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


def sjk_double_sum(p: int) -> int:
    """sum_{j,k=1}^{n} ((j+k)/p) as the O(n^2) double sum, n = (p-1)/2, the
    inner sum over k taken as one slice: legdet's half_range_sums before it
    summed over j + k."""
    vals = [euler_legendre(a, p) for a in range(p)]
    n = (p - 1) // 2
    return sum(sum(vals[j + 1 : j + n + 1]) for j in range(1, n + 1))


def quad_char_sum_by_one_gather(b: int, c: int, p: int) -> int:
    """sum_{x=0}^{p-1} ((x^2+bx+c)/p) as one int64 gather over all p values
    of x from an int8 table: legdet's quad_char_sum before it gathered in
    bounded chunks of x."""
    table = np.array(symbol_tuple(p), dtype=np.int8)
    x = np.arange(p, dtype=np.int64)
    idx = x * (x + b % p)
    idx += c % p
    idx %= p
    return int(table[idx].sum(dtype=np.int64))


def quad_char_sum_by_loop(b: int, c: int, p: int) -> int:
    """sum_{x=0}^{p-1} ((x^2+bx+c)/p), one Python term at a time: legdet's
    quad_char_sum before it became one gather from an int8 table."""
    vals = [euler_legendre(a, p) for a in range(p)]
    return sum(vals[(x * x + b * x + c) % p] for x in range(p))


def theta_vector_by_loop(p: int) -> list[int]:
    """theta_i = sum_{k=1}^{n} (((i+k)/p) - ((i-k)/p) - 2 (k/p)) for
    1 <= i <= n, as the O(n^2) double loop: legdet's theta_vector before it
    took the window sums from prefix sums."""
    v = [euler_legendre(a, p) for a in range(p)]
    n = (p - 1) // 2
    s1 = sum(v[k] for k in range(1, n + 1))
    return [sum(v[i + k] - v[(i - k) % p] for k in range(1, n + 1)) - 2 * s1 for i in range(1, n + 1)]


def eigenvalue_product_by_floats(p: int) -> complex:
    """The product of the character-sum eigenvalues lambda_r, 1 <= r <= n,
    of L25_EIGS at p ≡ 3 (mod 4), in complex floating point: lambda_r =
    sum_{k=1}^{p-1} ((k+1)/p) e^(2 pi i 2 ind(k) r / (p-1)), ind the
    discrete log to the least primitive root.  legdet's check multiplied
    these before it took the product as one circulant determinant."""
    v = [euler_legendre(a, p) for a in range(p)]
    n = (p - 1) // 2
    g = next(g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
    ind = [0] * p
    acc = 1
    for e in range(p - 1):
        ind[acc] = e
        acc = acc * g % p
    tau = 2.0 * math.pi / (p - 1)
    prod = complex(1.0)
    for r in range(1, n + 1):
        lam = sum(
            v[(k + 1) % p] * cmath.exp(1j * tau * (2 * ind[k] * r % (p - 1)))
            for k in range(1, p)
        )
        prod *= lam
    return prod


def eigenspace_mismatch_by_loop(p: int, sq: list[list[int]]):
    """The first (j0, ji, row), 1-based, at which the n x n `sq` (A+^2 at
    p ≡ 1 mod 4) fails sq (e_ji - e_j0) = p (e_ji - e_j0), for j0 the first
    index of each symbol group and ji each later one, or None: L24_EIGSPACE's
    entry-by-entry loop before it became one array comparison per group."""
    v = [euler_legendre(a, p) for a in range(p)]
    n = (p - 1) // 2
    for want_sym in (1, -1):
        group = [j for j in range(1, n + 1) if v[j] == want_sym]
        j0 = group[0]
        for ji in group[1:]:
            for r in range(n):
                want = p * ((1 if r == ji - 1 else 0) - (1 if r == j0 - 1 else 0))
                if sq[r][ji - 1] - sq[r][j0 - 1] != want:
                    return j0, ji, r + 1
    return None


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


def symbol_tuple(p: int) -> tuple[int, ...]:
    """(a/p) for 0 <= a < p as a tuple of Python ints, marked from the
    nonzero squares: legdet's symbol table before it became one signed byte
    per symbol."""
    vals = [-1] * p
    vals[0] = 0
    for i in range(1, (p - 1) // 2 + 1):
        vals[i * i % p] = 1
    return tuple(vals)


def prime_invariants_by_prefix_list(p: int) -> tuple:
    """(p, n, c_p, d_p, h_neg, q_p, N) from one list of p prefix
    sums and three O(p) slices of it: legdet's prime_invariants before it
    summed the windows in bounded chunks."""
    vals = symbol_tuple(p)
    n = (p - 1) // 2

    pref = list(accumulate(vals))          # pref[i] = sum of vals[0..i]
    half = vals[1 : n + 1]
    upper = pref[n + 1 : 2 * n + 1]
    lower = pref[1 : n + 1]
    d_p = sum(t * (u - l) for t, u, l in zip(half, upper, lower))

    s = pref[n]

    # N = sum over j of (1 + (j/p))/2 * (n + pref[j+n] - pref[j])/2
    num = n * (n + s) + sum(upper) - sum(lower) + d_p
    if num % 4 != 0:
        raise InternalError(f"pair count numerator {num} is not divisible by 4 at p={p}")
    big_n = num // 4

    h_neg = None
    if p % 4 == 3 and p > 3:
        denom = 2 - vals[2]
        if s <= 0 or s % denom != 0:
            raise InternalError(f"character sum {s} not divisible by {denom} at p={p}")
        h_neg = s // denom
    q_p = Fraction(vals[2] * (s * s - d_p * d_p + (d_p + n) ** 2), 16)
    return p, n, s, d_p, h_neg, q_p, big_n


def half_range_sums_by_genexpr(p: int) -> tuple[int, int]:
    """(S2, SJK) of legdet's half_range_sums, each a generator expression
    that indexes a tuple table one symbol at a time, SJK over m = j + k
    weighted by its n - |m - n - 1| pairs: the form before the sums became
    weighted sums over a view of the byte table (S1 is `sum_half_by_slice`)."""
    vals = symbol_tuple(p)
    n = (p - 1) // 2
    s2 = sum(k * vals[k] for k in range(1, n + 1))
    sjk = sum(vals[m] * (n - abs(m - n - 1)) for m in range(2, 2 * n + 1))
    return s2, sjk


def sum_half_by_slice(p: int) -> int:
    """(1/p) + ... + (n/p) as the sum of a copied slice of a tuple table:
    the half sum as legdet read it before the table was a byte view, and
    before `prime_invariants`' c_p became its one home."""
    vals = symbol_tuple(p)
    return sum(vals[1 : (p - 1) // 2 + 1])


def prime_invariants_by_counting(p: int) -> tuple:
    """(p, n, c_p, d_p, h_neg, q_p, N) with N counted from a second
    prefix list of the +1 symbols, and h(-p) by the half-range sum, both
    routes checked, as legdet's prime_invariants computed them before N came
    from the d_p prefix sums."""
    vals = symbol_tuple(p)
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
    return p, n, s, d_p, h_neg, q_p, big_n


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


# Pure-Python modular kernels over GF(m), the references for exactla's
# numpy kernels.


def det_mod_py(rows: list[list[int]], m: int) -> int:
    a = [[x % m for x in row] for row in rows]
    n = len(a)
    det = 1
    for j in range(n):
        piv = next((i for i in range(j, n) if a[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            a[j], a[piv] = a[piv], a[j]
            det = -det
        pj = a[j]
        det = det * pj[j] % m
        inv = pow(pj[j], -1, m)
        for i in range(j + 1, n):
            f = a[i][j] * inv % m
            if f:
                ai = a[i]
                for k in range(j, n):
                    ai[k] = (ai[k] - f * pj[k]) % m
    return det % m


def rank_mod_py(rows: list[list[int]], q: int) -> int:
    """The rank of rows over GF(q), q prime, by row echelon form on lists:
    each column's first nonzero entry at or below the current row clears
    that column in the rows below it."""
    a = [[x % q for x in row] for row in rows]
    rank = 0
    for j in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        inv = pow(top[j], -1, q)
        for i in range(rank + 1, len(a)):
            f = a[i][j] * inv % q
            if f:
                a[i] = [(x - f * y) % q for x, y in zip(a[i], top)]
        rank += 1
    return rank


def solve_mod_py(rows: list[list[int]], vec: Sequence[int], m: int):
    """(det mod m, solution of A x = v mod m), or (0, None) if singular mod m."""
    n = len(rows)
    a = [[x % m for x in row] + [vec[i] % m] for i, row in enumerate(rows)]
    det = 1
    for j in range(n):
        piv = next((i for i in range(j, n) if a[i][j]), None)
        if piv is None:
            return 0, None
        if piv != j:
            a[j], a[piv] = a[piv], a[j]
            det = -det
        pj = a[j]
        det = det * pj[j] % m
        inv = pow(pj[j], -1, m)
        for i in range(j + 1, n):
            f = a[i][j] * inv % m
            if f:
                ai = a[i]
                for k in range(j, n + 1):
                    ai[k] = (ai[k] - f * pj[k]) % m
    x = [0] * n
    for i in range(n - 1, -1, -1):
        acc = sum(a[i][k] * x[k] for k in range(i + 1, n)) % m
        x[i] = (a[i][n] - acc) * pow(a[i][i], -1, m) % m
    return det % m, x


# The modular solve: legdet's adjugate_apply above n = 8 before every solve
# became one Bareiss elimination.  Each modulus eliminates [A | V] with the
# replaced stacked kernel (`eliminate_delayed_np`), whose pivot rows end
# reduced, then back-substitutes.


def solve_mod(aug: np.ndarray, m: int):
    """(det A mod m, X with A X = V mod m, flattened row-major) for
    aug = [A | V], or (0, None) if A is singular mod m."""
    n = aug.shape[0]
    a = (aug % m).astype(np.int64)
    det = eliminate_delayed_np(a[None], np.array([m], dtype=np.int64))[0]
    if det == 0:
        return 0, None
    x = np.zeros((n, aug.shape[1] - n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        acc = a[i, i + 1 : n] @ x[i + 1 :]
        x[i] = (a[i, n:] - acc) % m * pow(int(a[i, i]), -1, m) % m
    return det, x.ravel().tolist()


def adj_mod(aug: np.ndarray, m: int, d: int) -> list[int]:
    """adj(A) V mod m = det(A) * A^{-1} V for aug = [A | V], where d, not
    divisible by m, is det(A): InternalError if the solve's det mod m is
    not d mod m."""
    det_m, x = solve_mod(aug, m)
    if det_m != d % m:
        raise InternalError(f"the determinant passed is not det(m) mod {m}")
    return [det_m * t % m for t in x]


def adjugate_crt(a: np.ndarray, u: np.ndarray, d: int | None) -> tuple[list[int], int]:
    """(adj(a) @ u flattened row-major, det(a)) for the kernel arrays a and
    u, from modular solves of [a | u] over the moduli that do not divide
    d = det(a), computed first unless the caller passes it; every entry is
    bounded by the Hadamard bound times the largest column 1-norm of u.
    Each solve checks d against its own det mod its modulus (`adj_mod`)."""
    n = len(a)
    if d is None:
        d = exactla.det(a)
        if d == 0:
            raise ValueError("singular matrix")
    norm = max(sum(map(abs, col)) for col in zip(*u.tolist()))
    target = 2 * exactla._row_bound(a) * max(1, norm)
    used = exactla._moduli_for(n, target, d)
    aug = np.concatenate([a, u], axis=1)
    residues = [adj_mod(aug, m, d) for m in used]
    return [exactla.crt_symmetric(r, used) for r in zip(*residues)], d


def charpoly_mod_py(rows: list[list[int]], m: int) -> list[int]:
    n = len(rows)
    h = [[x % m for x in row] for row in rows]
    # Hessenberg reduction by similarity transforms over GF(m).
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = pow(h[j + 1][j], -1, m)
        pivrow = h[j + 1]
        for i in range(j + 2, n):
            f = h[i][j] * inv % m
            if f:
                hi = h[i]
                for k in range(j, n):
                    hi[k] = (hi[k] - f * pivrow[k]) % m
                for r in range(n):
                    h[r][j + 1] = (h[r][j + 1] + f * h[r][i]) % m
    # charpoly of the Hessenberg form, expanding along the last column
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [0] + prev  # x * p_{k-1}
        hk = h[k - 1][k - 1]
        for idx in range(k):
            cur[idx] = (cur[idx] - hk * prev[idx]) % m
        beta = 1
        for i in range(k - 1, 0, -1):
            beta = beta * h[i][i - 1] % m
            if beta == 0:
                break
            wgt = h[i - 1][k - 1] * beta % m
            if wgt:
                pi = polys[i - 1]
                for idx in range(i):
                    cur[idx] = (cur[idx] - wgt * pi[idx]) % m
        polys.append(cur)
    return [c % m for c in polys[n]]


def eliminate_delayed_np(a: np.ndarray, mods: np.ndarray) -> list[int]:
    """The stacked elimination that legdet's panel-blocked kernel replaced:
    Gaussian elimination of the (S, n, c) int64 stack `a`, slice s over
    GF(mods[s]) with entries in [0, mods[s]), in place, one rank-1 update of
    every trailing block per step and the blocks reduced whole only when
    int64 headroom above the largest modulus runs out; returns the
    determinant of each slice's leading n x n block mod its modulus."""
    n = a.shape[1]
    top = int(mods.max())
    room = (2**63 - 1 - top) // (top - 1) ** 2
    ms = mods.tolist()
    mcol = mods[:, None]
    det = [1] * len(ms)
    pending = 0
    for j in range(n):
        col = a[:, j:, j]
        np.remainder(col, mcol, out=col)
        piv = col[:, 0].tolist()
        if 0 in piv:
            off = (col != 0).argmax(axis=1)
            swap = np.flatnonzero(off)
            lower = j + off[swap]
            upper = a[swap, j, j:]
            a[swap, j, j:] = a[swap, lower, j:]
            a[swap, lower, j:] = upper
            for s in swap.tolist():
                det[s] = -det[s]
            piv = col[:, 0].tolist()
        row = a[:, j, j + 1 :]
        np.remainder(row, mcol, out=row)
        det = [d * x % m for d, x, m in zip(det, piv, ms)]
        inv = [pow(x, -1, m) if x else 0 for x, m in zip(piv, ms)]
        f = col[:, 1:] * np.array(inv, dtype=np.int64)[:, None] % mcol
        block = a[:, j + 1 :, j + 1 :]
        block -= f[:, :, None] * row[:, None, :]
        pending += 1
        if pending == room:
            np.remainder(block, mods[:, None, None], out=block)
            pending = 0
    return det


def charpoly_per_step_np(a: np.ndarray, m: int) -> list[int]:
    """The numpy charpoly kernel that legdet's panel-blocked Hessenberg
    replaced: each step subtracts its rank-1 row update from the active
    block, reduces the block, and adds its column update, all at once."""
    h = a % m
    n = h.shape[0]
    for j in range(n - 2):
        nz = np.flatnonzero(h[j + 1 :, j])
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv]] = h[[piv, j + 1]]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        f = h[j + 2 :, j] * pow(int(h[j + 1, j]), -1, m) % m
        block = h[j + 2 :, j:]
        block -= np.multiply.outer(f, h[j + 1, j:])
        block %= m
        col = h[:, j + 1]
        col += h[:, j + 2 :] @ f
        np.remainder(col, m, out=col)
    diag, sub = np.diagonal(h), np.diagonal(h, -1)
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    beta = np.zeros(0, dtype=np.int64)
    for k in range(1, n + 1):
        prev, cur = polys[k - 1, :k], polys[k, : k + 1]
        cur[1:] = prev
        cur[:k] -= int(diag[k - 1]) * prev
        if k > 1:
            beta = np.append(beta, 1) * int(sub[k - 2]) % m
            cur[: k - 1] -= (h[: k - 1, k - 1] * beta % m) @ polys[: k - 1, : k - 1]
        np.remainder(cur, m, out=cur)
    return [int(c) for c in polys[n]]


def shifted_rows(rows, f, g, x: int, y: int, z: int, w: int) -> list[list[int]]:
    """The four-parameter shifted matrix a_ij + x + f_i y + g_j z + f_i g_j w,
    built entry by entry: the tuple-building path that legdet's broadcast
    sample path replaced."""
    return [
        [aij + b + gj * c for aij, gj in zip(row, g)]
        for row, b, c in ((row, x + fi * y, z + fi * w) for row, fi in zip(rows, f))
    ]


def build_by_rows(name: str, p: int) -> list[list[int]]:
    """The named matrix of p as rows of Python ints, entry by entry: the
    tuple-building path that legdet's fancy-indexed `charmat.build` replaced,
    with its symbols from Euler's criterion instead of legdet's table."""
    v = [euler_legendre(a, p) for a in range(p)]
    idx = range(0 if name.startswith("sun") else 1, (p - 1) // 2 + 1)  # 0..n or 1..n
    if name == "sun_plus":
        return [[v[j + k] for k in idx] for j in idx]
    if name == "sun_minus":
        return [[v[(j - k) % p] for k in idx] for j in idx]
    if name == "aminus":
        return [[v[j + k] - v[(j - k) % p] for k in idx] for j in idx]
    if name == "ap":
        return [[v[(j * j + j * k) % p] + v[(j * j - j * k) % p] for k in idx] for j in idx]
    return [[v[j + k] + v[(j - k) % p] for k in idx] for j in idx]


# entry (j, k) of each named matrix from the symbol array v, as index arrays
# j (a column) and k (a row): legdet's gather before `charmat.build` took
# Hankel and Toeplitz windows, which made n x n int64 index temporaries
_FORMULAS = {
    "aplus": lambda v, j, k, p: v[j + k] + v[(j - k) % p],
    "aminus": lambda v, j, k, p: v[j + k] - v[(j - k) % p],
    "ap": lambda v, j, k, p: v[(j * j + j * k) % p] + v[(j * j - j * k) % p],
    "sun_plus": lambda v, j, k, p: v[j + k],
    "sun_minus": lambda v, j, k, p: v[(j - k) % p],
}


def build_by_gather(name: str, p: int, vals: Sequence[int]) -> np.ndarray:
    """The named matrix of p as int64, gathered out of the symbol list
    `vals` (vals[a] = (a/p)) through n x n index arrays."""
    v = np.array(vals, dtype=np.int8)
    idx = np.arange(0 if name.startswith("sun") else 1, (p - 1) // 2 + 1)  # 0..n or 1..n
    return _FORMULAS[name](v, idx[:, None], idx, p).astype(np.int64)


# The old route of legdet.realquad to the fundamental unit and the class
# number: the continued fraction of sqrt(p), a cube-root test for a
# half-integral unit, and the rho-cycles of reduced indefinite forms.  One
# continued-fraction step of (b + sqrt(p))/2 replaced all three there.


def sqrt_cf(p: int) -> tuple[int, int, int, int]:
    """Continued fraction of sqrt(p) through one period.

    Walks the integer (P, Q) recurrence for (P + sqrt(p))/Q starting at
    (0, 1); the period closes at the first return of the state Q = 1.
    Returns (period, x, y, norm) where x/y is the convergent just before the
    close, so x + y*sqrt(p) is the smallest integral unit > 1 and
    x^2 - p y^2 = norm = (-1)^period.
    """
    a0 = math.isqrt(p)
    if a0 * a0 == p:
        raise ValueError(f"{p} is a perfect square")
    h_pp, h = 0, 1  # convergent numerators h_{-2}, h_{-1}
    k_pp, k = 1, 0
    big_p, big_q = 0, 1
    period = 0
    while True:
        a = (big_p + a0) // big_q
        h_pp, h = h, a * h + h_pp
        k_pp, k = k, a * k + k_pp
        big_p = a * big_q - big_p
        big_q = (p - big_p * big_p) // big_q
        period += 1
        if big_q == 1:
            break
    norm = h * h - p * k * k
    if abs(norm) != 1 or norm != (-1) ** period:
        raise InternalError(f"continued fraction of sqrt({p}) gave norm {norm}")
    return period, h, k, norm


def _pell_unit(p: int) -> tuple[int, int]:
    """Minimal (x, y) with x + y*sqrt(p) > 1 and x^2 - p y^2 = -1."""
    _, x, y, norm = sqrt_cf(p)
    if norm != -1:
        raise InternalError(
            f"x^2 - {p} y^2 = -1 should be solvable for a prime ≡ 1 (mod 4)"
        )
    return x, y


def fundamental_unit_by_sqrt_cf(p: int) -> QuadElem:
    """Fundamental unit eps > 1 of Q(sqrt(p)) for a prime p ≡ 1 (mod 4).

    The continued fraction of sqrt(p) certifies the minimal integral unit
    x1 + y1*sqrt(p), of norm -1.  The fundamental unit is either that or a
    half-integral (a + b*sqrt(p))/2 whose cube is the integral unit; that
    cube root has norm -1 too, so its conjugate is -1/eps and its trace a
    solves a^3 + 3a = 2*x1.  The left side is increasing, so a is the integer
    cube root of 2*x1 or there is no such unit, and then p*b^2 = a^2 + 4
    gives b.  The cube and the norm are checked before the half-integral
    unit is returned.  (For p ≡ 1 (mod 8) there is never one: a, b odd give
    a^2 - p b^2 ≡ 1 - p ≡ 0 (mod 8), never ±4.)
    """
    x1, y1 = _pell_unit(p)
    integral = QuadElem(p, 2 * x1, 2 * y1)
    a = _icbrt(2 * x1)
    b = math.isqrt((a * a + 4) // p)
    if a**3 + 3 * a == 2 * x1 and p * b * b == a * a + 4:
        eps = QuadElem(p, a, b)
        if eps**3 != integral:
            raise InternalError(f"half-integral unit at p={p} fails the cube test")
    else:
        eps = integral
    if eps.norm() != -1:
        raise InternalError(f"fundamental unit of Q(sqrt({p})) has norm +1")
    return eps


@dataclass(frozen=True)
class QuadForm:
    """Binary quadratic form a x^2 + b xy + c y^2, used here with positive
    nonsquare discriminant b^2 - 4ac."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        """0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, decided by
        integer squarings (D is never a perfect square here)."""
        d = self.discriminant
        b = self.b
        if b <= 0 or b * b >= d:
            return False
        t = 2 * abs(self.a)
        if (t - b) >= 0 and (t - b) * (t - b) >= d:  # need 2|a| - b < sqrt(D)
            return False
        if (t + b) * (t + b) <= d:  # need sqrt(D) < 2|a| + b
            return False
        return True

    def rho(self) -> "QuadForm":
        """Reduction step; permutes the reduced forms of this discriminant."""
        d = self.discriminant
        s = math.isqrt(d)
        ac = abs(self.c)
        # unique r ≡ -b (mod 2|c|) in (sqrt(D) - 2|c|, sqrt(D))
        r = s - (s + self.b) % (2 * ac)
        return QuadForm(self.c, r, (r * r - d) // (4 * self.c))


def reduced_forms(p: int) -> set[QuadForm]:
    """All reduced indefinite forms of discriminant p (prime, p ≡ 1 mod 4)."""
    s = math.isqrt(p)
    forms = set()
    for b in range(1, s + 1):
        if (b - p) % 2 != 0:
            continue
        m = (b * b - p) // 4  # = a*c < 0
        for a in range(1, s + b + 1):
            if m % a != 0:
                continue
            for aa in (a, -a):
                form = QuadForm(aa, b, m // aa)
                if form.is_reduced():
                    forms.add(form)
    return forms


def class_number_by_forms(p: int) -> int:
    """Class number h_p of Q(sqrt(p)) for a prime p ≡ 1 (mod 4), as the
    number of rho-cycles of reduced indefinite forms of discriminant p.
    The fundamental unit has norm -1 for such p, so the narrow (cycle) count
    equals the ideal class number."""
    forms = reduced_forms(p)
    cycles = 0
    seen: set[QuadForm] = set()
    for start in sorted(forms, key=lambda f: (f.a, f.b, f.c)):
        if start in seen:
            continue
        cycles += 1
        f = start
        while True:
            seen.add(f)
            f = f.rho()
            if f not in forms:
                raise InternalError(f"reduction left the reduced set at {f} (p={p})")
            if f == start:
                break
    return cycles
