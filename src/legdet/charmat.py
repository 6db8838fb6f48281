"""Builders for the Legendre-symbol matrices and the special vectors tied to
them.  All entries come from the one cached symbol table
(`ntheory.legendre_table`), so construction is O(size) once the prime's
table exists.  `build` takes each matrix by name, with one entry formula
per name; with n = (p-1)/2 and (a/p) the Legendre symbol:

  aplus      A+    [((j+k)/p) + ((j-k)/p)]         1 <= j,k <= n
  aminus     A-    [((j+k)/p) - ((j-k)/p)]         1 <= j,k <= n
  ap         A_p   [((j^2+jk)/p) + ((j^2-jk)/p)]   1 <= j,k <= n
  sun_plus         [((j+k)/p)]                     0 <= j,k <= n
  sun_minus        [((j-k)/p)]                     0 <= j,k <= n

The four-parameter matrices of the catalog, a_jk + x + (j/p) y + (k/p) z
+ (jk/p) w with a one of A+ and the two (n+1)-square Sun matrices, are
never built one at a time: `exactla.shifted_dets` broadcasts their samples
from the base matrix and the symbol vector.
"""

from __future__ import annotations

from .exactla import IntMatrix
from .ntheory import legendre_table

_NAMES = ("aplus", "aminus", "ap", "sun_plus", "sun_minus")


def build(name: str, p: int) -> IntMatrix:
    """The matrix `name` (one of aplus, aminus, ap, sun_plus, sun_minus) of
    the odd prime p; ValueError for any other name."""
    if name not in _NAMES:
        raise ValueError(f"unknown matrix {name!r}: expected one of {', '.join(_NAMES)}")
    v = legendre_table(p).vals
    idx = range(0 if name.startswith("sun") else 1, (p - 1) // 2 + 1)  # 0..n or 1..n
    if name == "sun_plus":
        return IntMatrix([[v[j + k] for k in idx] for j in idx])
    if name == "sun_minus":
        return IntMatrix([[v[(j - k) % p] for k in idx] for j in idx])
    if name == "aminus":
        return IntMatrix([[v[j + k] - v[(j - k) % p] for k in idx] for j in idx])
    if name == "ap":
        return IntMatrix([[v[(j * j + j * k) % p] + v[(j * j - j * k) % p] for k in idx] for j in idx])
    return IntMatrix([[v[j + k] + v[(j - k) % p] for k in idx] for j in idx])


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
