"""Builders for the Legendre-symbol matrices and the special vectors tied to
them.  All entries come from the one cached symbol table
(`ntheory.legendre_table`), so construction is O(size) once the prime's
table exists.  Each base matrix (A+, A-, A_p and the two (n+1)-square Sun
matrices) has one entry formula; a parametric kind is its base matrix
shifted by `exactla.shifted_matrix`, the one-point case of the broadcast
that `exactla.shifted_dets` computes its samples with.

With n = (p-1)/2 and (a/p) the Legendre symbol:

  APlus        [((j+k)/p) + ((j-k)/p)]               1 <= j,k <= n
  AMinus       [((j+k)/p) - ((j-k)/p)]               1 <= j,k <= n
  AXYZW        [x + ((j+k)/p) + ((j-k)/p)
                  + (j/p) y + (k/p) z + (jk/p) w]    1 <= j,k <= n
  AP           [((j^2+jk)/p) + ((j^2-jk)/p)]         1 <= j,k <= n
  SunHalfPlus  [x + ((j+k)/p) + (j/p) y + (k/p) z
                  + (jk/p) w]                        0 <= j,k <= n
  SunHalfMinus same with ((j-k)/p) in place of ((j+k)/p)
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import IntMatrix, shifted_matrix
from .ntheory import legendre_table

APLUS = "APlus"
AMINUS = "AMinus"
AXYZW = "AXYZW"
AP = "AP"
SUN_HALF_PLUS = "SunHalfPlus"
SUN_HALF_MINUS = "SunHalfMinus"

_SUN = frozenset({SUN_HALF_PLUS, SUN_HALF_MINUS})
_PARAMETRIC = _SUN | {AXYZW}
_TAGS = frozenset({APLUS, AMINUS, AP}) | _PARAMETRIC


@dataclass(frozen=True)
class MatrixKind:
    """A matrix family tag plus, for the parametric kinds, the integer shift
    parameters (x, y, z, w)."""

    tag: str
    params: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown matrix kind {self.tag!r}")
        if (self.params is not None) != (self.tag in _PARAMETRIC):
            raise ValueError(f"kind {self.tag} and params {self.params} do not match")

    @classmethod
    def aplus(cls) -> "MatrixKind":
        return cls(APLUS)

    @classmethod
    def aminus(cls) -> "MatrixKind":
        return cls(AMINUS)

    @classmethod
    def ap(cls) -> "MatrixKind":
        return cls(AP)

    @classmethod
    def axyzw(cls, x: int, y: int, z: int, w: int) -> "MatrixKind":
        return cls(AXYZW, (x, y, z, w))

    @classmethod
    def sun_half_plus(cls, x: int, y: int, z: int, w: int) -> "MatrixKind":
        return cls(SUN_HALF_PLUS, (x, y, z, w))

    @classmethod
    def sun_half_minus(cls, x: int, y: int, z: int, w: int) -> "MatrixKind":
        return cls(SUN_HALF_MINUS, (x, y, z, w))


def _base_rows(tag: str, v: tuple[int, ...], p: int) -> list[list[int]]:
    """The entries of the zero-parameter matrix of kind `tag`."""
    n = (p - 1) // 2
    if tag in _SUN:
        idx = range(n + 1)
        if tag == SUN_HALF_PLUS:
            return [[v[j + k] for k in idx] for j in idx]
        return [[v[(j - k) % p] for k in idx] for j in idx]
    idx = range(1, n + 1)
    if tag == AMINUS:
        return [[v[j + k] - v[(j - k) % p] for k in idx] for j in idx]
    if tag == AP:
        return [[v[(j * j + j * k) % p] + v[(j * j - j * k) % p] for k in idx] for j in idx]
    return [[v[j + k] + v[(j - k) % p] for k in idx] for j in idx]  # APLUS, AXYZW


def build(kind: MatrixKind, p: int) -> IntMatrix:
    """Construct the requested symbol matrix for the odd prime p.  A
    parametric kind is its base matrix shifted by `shifted_matrix`, with f
    the symbol vector over the base's index range: (jk/p) = (j/p)(k/p), and
    for the Sun kinds (0/p) = 0 wipes the y, z, w terms in row and column 0."""
    v = legendre_table(p).vals
    base = IntMatrix(_base_rows(kind.tag, v, p))
    if kind.params is None:
        return base
    f = v[0 if kind.tag in _SUN else 1 : (p - 1) // 2 + 1]
    return shifted_matrix(base, f, f, *kind.params)


def symbol_vector(p: int) -> list[int]:
    """[(1/p), (2/p), ..., (n/p)] with n = (p-1)/2."""
    return list(legendre_table(p).vals[1 : (p - 1) // 2 + 1])


def theta_vector(p: int) -> list[int]:
    """The integer vector theta with APlus(p) @ theta = p * (1, ..., 1)^T,
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
    v2 = ((j/p) + 1)_j with APlus v1 = v1 and APlus v2 = -v2.  Both are
    nonzero because residues and nonresidues each fill half of 1..n, which
    the L23_EIGVECS check asserts."""
    if p % 4 != 1:
        raise ValueError(f"eigenvector pair requires p ≡ 1 (mod 4), got {p}")
    half = symbol_vector(p)
    return [s - 1 for s in half], [s + 1 for s in half]
