"""Builders for the Legendre-symbol matrices and the special vectors tied to
them.  All entries come from the one cached symbol table
(`ntheory.legendre_table`), so construction is O(size) once the prime's
table exists.  `build` takes each matrix by name and returns it as a
read-only int64 array, indexed out of the table by one formula per name;
with n = (p-1)/2 and (a/p) the Legendre symbol:

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
its invariants, and each named matrix, determinant and charpoly, each
computed once.  A matrix equal, entry by entry, to the transpose of one
built before it (A- = A+^T at p ≡ 3 mod 4) shares that one's determinant
and charpoly; the entries decide, never p mod 4.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .exactla import IntPoly, charpoly, det_many
from .ntheory import PrimeInvariants, legendre_table, prime_invariants

# entry (j, k) of each matrix from the symbol array v, as index arrays j (a
# column) and k (a row); j*j + j*k < 2^61 for every p a table allows
_FORMULAS = {
    "aplus": lambda v, j, k, p: v[j + k] + v[(j - k) % p],
    "aminus": lambda v, j, k, p: v[j + k] - v[(j - k) % p],
    "ap": lambda v, j, k, p: v[(j * j + j * k) % p] + v[(j * j - j * k) % p],
    "sun_plus": lambda v, j, k, p: v[j + k],
    "sun_minus": lambda v, j, k, p: v[(j - k) % p],
}


def build(name: str, p: int) -> np.ndarray:
    """The matrix `name` (one of aplus, aminus, ap, sun_plus, sun_minus) of
    the odd prime p, as a read-only int64 array; ValueError for any other
    name."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown matrix {name!r}: expected one of {', '.join(_FORMULAS)}")
    # every entry is in [-2, 2]: gathered as int8, widened once
    v = np.array(legendre_table(p).vals, dtype=np.int8)
    idx = np.arange(0 if name.startswith("sun") else 1, (p - 1) // 2 + 1)  # 0..n or 1..n
    m = _FORMULAS[name](v, idx[:, None], idx, p).astype(np.int64)
    m.flags.writeable = False
    return m


def symbol_vector(p: int) -> list[int]:
    """[(1/p), (2/p), ..., (n/p)] with n = (p-1)/2."""
    return list(legendre_table(p).vals[1 : (p - 1) // 2 + 1])


def theta_vector(p: int) -> list[int]:
    """The integer vector theta with A+ theta = p * (1, ..., 1)^T,
    defined for primes p ≡ 3 (mod 4) by

        theta_i = sum_{k=1}^{n} (((i+k)/p) - ((i-k)/p) - 2 (k/p)).
    """
    if p % 4 != 3:
        raise ValueError(f"theta vector requires p ≡ 3 (mod 4), got {p}")
    v = legendre_table(p).vals
    n = (p - 1) // 2
    s1 = sum(v[k] for k in range(1, n + 1))
    return [
        sum(v[i + k] - v[(i - k) % p] for k in range(1, n + 1)) - 2 * s1
        for i in range(1, n + 1)
    ]


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
        self._dets: dict[str, int] = {}
        self._polys: dict[str, IntPoly] = {}

    @cached_property
    def invariants(self) -> PrimeInvariants:
        return prime_invariants(self.p)

    def matrix(self, name: str) -> np.ndarray:
        """The matrix `name`, built once and read-only.  The one place that
        decides sharing: it takes the det and charpoly of an earlier matrix
        whose transpose it is."""
        if name not in self._mats:
            m = build(name, self.p)
            self._rep[name] = next((self._rep[e] for e, a in self._mats.items() if _is_transpose(m, a)), name)
            self._mats[name] = m
        return self._mats[name]

    def dets(self, *names: str) -> list[int]:
        """The named matrices' determinants; the unknown ones from one `det_many` call."""
        for name in names:
            self.matrix(name)
        reps = [self._rep[name] for name in names]
        todo = [r for r in dict.fromkeys(reps) if r not in self._dets]
        if todo:
            self._dets.update(zip(todo, det_many(self._mats[r] for r in todo)))
        return [self._dets[r] for r in reps]

    def charpoly(self, name: str) -> IntPoly:
        """The charpoly of `name`, computed once and cross-checked against its det."""
        [d] = self.dets(name)
        rep = self._rep[name]
        if rep not in self._polys:
            self._polys[rep] = charpoly(self._mats[rep], d)
        return self._polys[rep]


@lru_cache(maxsize=1)
def at(p: int) -> PrimeRecord:
    """p's record.  Only the last prime's is kept: callers visit one prime at
    a time, and its matrices are O(p^2)."""
    return PrimeRecord(p)
