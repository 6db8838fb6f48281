"""Builders for the Legendre-symbol matrices and the special vectors tied to
them.  All entries come from the one cached symbol table
(`ntheory.legendre_table`), so construction is O(size) once the prime's
table exists.  `build` takes each matrix by name and returns it as a
read-only int64 array, from strided windows over the table (`_WINDOWS`)
or, for A_p, a gather; with n = (p-1)/2 and (a/p) the Legendre symbol:

  aplus      A+    [((j+k)/p) + ((j-k)/p)]         1 <= j,k <= n
  aminus     A-    [((j+k)/p) - ((j-k)/p)]         1 <= j,k <= n
  ap         A_p   [((j^2+jk)/p) + ((j^2-jk)/p)]   1 <= j,k <= n
  sun_plus         [((j+k)/p)]                     0 <= j,k <= n
  sun_minus        [((j-k)/p)]                     0 <= j,k <= n

The four-parameter matrices of the catalog, a_jk + x + (j/p) y + (k/p) z
+ (jk/p) w with a one of A+ and the two (n+1)-square Sun matrices, are
never built one at a time: `exactla.shifted_dets` broadcasts their samples
from the base matrix and the symbol vector.

`at(p)` is p's one record, read by `legdet compute` and the catalog alike:
its invariants, half-range sums, A+'s four-parameter expansion, and each
named matrix, determinant and charpoly, each computed once.  A matrix
equal, entry by entry, to the transpose of one built before it (A- = A+^T
at p ≡ 3 mod 4) shares that one's determinant and charpoly; the entries
decide, never p mod 4.  The record names p to
`exactla` as the prime whose power its rank mod p forces into each det and
charpoly: det(A+) at p = 397 is p^98 times a sign.  `require_matrix_prime`
is the one size limit on the matrices, for `compute`, `verify` and `scan`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exactla import IntPoly, ParamDet, charpoly, det_many, param_det_expand, q_rank
from .ntheory import PrimeInvariants, half_range_sums, legendre_table, prime_invariants, symbol_array

# each matrix from the Hankel window H = [((j+k)/p)] and the Toeplitz window
# T = [((j-k)/p)] over its index range, as one int64 allocation
_WINDOWS = {
    "aplus": lambda h, t: np.add(h, t, dtype=np.int64),
    "aminus": lambda h, t: np.subtract(h, t, dtype=np.int64),
    "sun_plus": lambda h, t: h.astype(np.int64),
    "sun_minus": lambda h, t: t.astype(np.int64),
}
_NAMES = (*_WINDOWS, "ap")


#: The largest n = (p-1)/2 whose matrices legdet builds, for `compute`,
#: `verify` and `scan` alike: up to here charpoly keeps 26-bit moduli
#: (`exactla.modulus_bits`).
MATRIX_DIM_MAX = 2048


def require_matrix_prime(p: int, what: str = "a matrix field") -> None:
    """Raises ValueError, naming `what` needs the matrices, when A+ and A- of
    p, (p-1)/2 square, are larger than MATRIX_DIM_MAX; it builds nothing."""
    if (p - 1) // 2 > MATRIX_DIM_MAX:
        raise ValueError(
            f"p = {p} is too large for {what}: "
            f"n = (p-1)/2 = {(p - 1) // 2} is above {MATRIX_DIM_MAX}"
        )


def build(name: str, p: int) -> np.ndarray:
    """The matrix `name` (one of aplus, aminus, ap, sun_plus, sun_minus) of
    the odd prime p, as a read-only int64 array; ValueError for any other
    name.

    Over the index range lo..n (lo = 0 for the Sun matrices, 1 otherwise),
    entry (j, k) of H depends on j + k alone and of T on j - k alone, so each
    is a strided window of a vector of 2m - 1 symbols, m = n - lo + 1; only
    the result is m x m.  A_p's entries depend on j^2 +- jk, and it is
    gathered through m x m index arrays (j^2 + jk < 2^61 for every p a table
    allows)."""
    if name not in _NAMES:
        raise ValueError(f"unknown matrix {name!r}: expected one of {', '.join(_NAMES)}")
    # every symbol is in [-1, 1]: gathered as int8, widened once
    v = symbol_array(p)
    n = (p - 1) // 2
    if name == "ap":
        j = np.arange(1, n + 1)
        sq, jk = (j * j)[:, None], j[:, None] * j
        m = np.add(v[(sq + jk) % p], v[(sq - jk) % p], dtype=np.int64)
    else:
        lo = 0 if name.startswith("sun") else 1
        size = n - lo + 1
        h = sliding_window_view(v[2 * lo : 2 * n + 1], size)  # h[i, l] = v[2lo + i + l]
        diffs = v[np.arange(1 - size, size) % p]  # ((d/p)) for d = 1-m .. m-1
        t = sliding_window_view(diffs, size)[:, ::-1]  # t[i, l] = ((i-l)/p)
        m = _WINDOWS[name](h, t)
    m.flags.writeable = False
    return m


def symbol_vector(p: int) -> list[int]:
    """[(1/p), (2/p), ..., (n/p)] with n = (p-1)/2."""
    return list(legendre_table(p)[1 : (p - 1) // 2 + 1])


def theta_vector(p: int) -> list[int]:
    """The integer vector theta with A+ theta = p * (1, ..., 1)^T,
    defined for primes p ≡ 3 (mod 4) by

        theta_i = sum_{k=1}^{n} (((i+k)/p) - ((i-k)/p) - 2 (k/p)),

    from prefix sums of the symbols of -n..2n: the two window sums
    sum_{k<=n} ((i +- k)/p) are differences of them, O(n) in all."""
    if p % 4 != 3:
        raise ValueError(f"theta vector requires p ≡ 3 (mod 4), got {p}")
    n = (p - 1) // 2
    # c[m] sums ((t/p)) over -n <= t < m - n, so the symbols of lo..hi sum
    # to c[hi + n + 1] - c[lo + n]
    c = np.zeros(3 * n + 2, dtype=np.int64)
    np.cumsum(symbol_array(p)[np.arange(-n, 2 * n + 1) % p], dtype=np.int64, out=c[1:])
    i = np.arange(1, n + 1)
    plus = c[i + 2 * n + 1] - c[i + n + 1]  # ((i+1)/p) + ... + ((i+n)/p)
    minus = c[i + n] - c[i]  # ((i-n)/p) + ... + ((i-1)/p)
    s1 = int(c[2 * n + 1] - c[n + 1])  # (1/p) + ... + (n/p)
    return (plus - minus - 2 * s1).tolist()


def special_eigvecs(p: int) -> tuple[list[int], list[int]]:
    """For p ≡ 1 (mod 4): the vectors v1 = ((j/p) - 1)_j and
    v2 = ((j/p) + 1)_j with A+ v1 = v1 and A+ v2 = -v2.  Both are
    nonzero because residues and nonresidues each fill half of 1..n, which
    the L23_EIGVECS check asserts."""
    if p % 4 != 1:
        raise ValueError(f"eigenvector pair requires p ≡ 1 (mod 4), got {p}")
    half = symbol_vector(p)
    return [s - 1 for s in half], [s + 1 for s in half]


def _is_transpose(a: np.ndarray, b: np.ndarray) -> bool:
    """a = b^T, entry by entry (b.T is a view, not a copy)."""
    return np.array_equal(a, b.T)


class PrimeRecord:
    """p's values, each computed on first read and kept."""

    def __init__(self, p: int):
        self.p = p
        self._mats: dict[str, np.ndarray] = {}
        self._rep: dict[str, str] = {}  # whose det and charpoly each name takes
        self._ranks: dict[str, int | None] = {}
        self._dets: dict[str, int] = {}
        self._polys: dict[str, IntPoly] = {}

    @cached_property
    def invariants(self) -> PrimeInvariants:
        return prime_invariants(self.p)

    @cached_property
    def half_range_sums(self) -> tuple[int, int]:
        """(S2, SJK) of `ntheory.half_range_sums`; S1 is invariants.c_p."""
        return half_range_sums(self.p)

    @cached_property
    def aplus_expansion(self) -> ParamDet:
        """|A+ + x + (j/p) y + (k/p) z + (jk/p) w| from its five base
        determinants alone, det(A+) the record's; the other four name p."""
        f = symbol_vector(self.p)
        [alpha] = self.dets("aplus")
        pd, _ = param_det_expand(self.matrix("aplus"), f, f, [], alpha, self.p)
        return pd

    def matrix(self, name: str) -> np.ndarray:
        """The matrix `name`, built once and read-only.  The one place that
        decides sharing: it takes the det and charpoly of an earlier matrix
        whose transpose it is."""
        if name not in self._mats:
            m = build(name, self.p)
            self._rep[name] = next((self._rep[e] for e, a in self._mats.items() if _is_transpose(m, a)), name)
            self._mats[name] = m
        return self._mats[name]

    def _rank(self, rep: str) -> int | None:
        """rep's rank mod p, taken once for its det and its charpoly
        (`exactla.q_rank`; None below n = 9, where neither divides)."""
        if rep not in self._ranks:
            self._ranks[rep] = q_rank(self._mats[rep], self.p)
        return self._ranks[rep]

    def dets(self, *names: str) -> list[int]:
        """The named matrices' determinants; the unknown ones from one
        `det_many` call, which divides out the power of p that each one's
        rank mod p forces."""
        for name in names:
            self.matrix(name)
        reps = [self._rep[name] for name in names]
        todo = [r for r in dict.fromkeys(reps) if r not in self._dets]
        if todo:
            mats = [self._mats[r] for r in todo]
            self._dets.update(zip(todo, det_many(mats, self.p, [self._rank(r) for r in todo])))
        return [self._dets[r] for r in reps]

    def charpoly(self, name: str) -> IntPoly:
        """The charpoly of `name`, computed once, with the powers of p that
        its rank mod p forces divided out, and cross-checked against its det;
        the rank is the one its det took."""
        [d] = self.dets(name)
        rep = self._rep[name]
        if rep not in self._polys:
            self._polys[rep] = charpoly(self._mats[rep], d, self.p, self._rank(rep))
        return self._polys[rep]


@lru_cache(maxsize=1)
def at(p: int) -> PrimeRecord:
    """p's record.  Only the last prime's is kept: callers visit one prime at
    a time, and its matrices are O(p^2)."""
    return PrimeRecord(p)
