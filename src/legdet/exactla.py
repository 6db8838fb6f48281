"""Exact dense linear algebra over arbitrary-precision integers.

Determinants and characteristic polynomials are computed modulo a fixed
descending list of word-sized primes and CRT-reconstructed into the symmetric
range; the number of moduli is chosen per call from a Hadamard-type bound, so
results are exact and deterministic.  Small determinants (n <= 8) go through
fraction-free Bareiss elimination instead.  Rational arithmetic appears only
inside mdl_check / param_det_expand; every public determinant path is
integer-only.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalError
from .ntheory import is_prime

DEFAULT_MODULI_BITS = 27
_MODULI_COUNT = 256


def _moduli_bits() -> int:
    raw = os.environ.get("LEGDET_MODULI_BITS")
    if raw is None:
        return DEFAULT_MODULI_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"LEGDET_MODULI_BITS must be an integer, got {raw!r}")
    if not 20 <= bits <= 62:
        raise ValueError(f"LEGDET_MODULI_BITS must be in [20, 62], got {bits}")
    return bits


@lru_cache(maxsize=8)
def moduli(bits: int) -> tuple[int, ...]:
    """The fixed descending list of primes just below 2**bits."""
    out = []
    m = (1 << bits) - 1
    while len(out) < _MODULI_COUNT and m > 2:
        if is_prime(m):
            out.append(m)
        m -= 2
    return tuple(out)


def crt_symmetric(residues: Sequence[int], mods: Sequence[int]) -> int:
    """Reconstruct the integer in (-P/2, P/2] from residues mod coprime mods."""
    x, prod = 0, 1
    for r, m in zip(residues, mods):
        t = (r - x) * pow(prod, -1, m) % m
        x += prod * t
        prod *= m
    if x > prod // 2:
        x -= prod
    return x


# ---------------------------------------------------------------------------
# modular kernels
# ---------------------------------------------------------------------------


def _det_mod_py(rows: list[list[int]], m: int) -> int:
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


def _det_mod_np(rows: list[list[int]], m: int) -> int:
    a = np.array(rows, dtype=np.int64) % m
    n = a.shape[0]
    det = 1
    for j in range(n):
        nz = np.nonzero(a[j:, j])[0]
        if nz.size == 0:
            return 0
        piv = j + int(nz[0])
        if piv != j:
            a[[j, piv]] = a[[piv, j]]
            det = -det
        det = det * int(a[j, j]) % m
        inv = pow(int(a[j, j]), -1, m)
        f = a[j + 1 :, j] * inv % m
        a[j + 1 :, j:] = (a[j + 1 :, j:] - f[:, None] * a[j, j:]) % m
    return det % m


def _solve_mod_py(rows: list[list[int]], vec: Sequence[int], m: int):
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


def _solve_mod_np(rows: list[list[int]], vec: Sequence[int], m: int):
    n = len(rows)
    a = np.empty((n, n + 1), dtype=np.int64)
    a[:, :n] = np.array(rows, dtype=np.int64) % m
    a[:, n] = np.array(vec, dtype=np.int64) % m
    det = 1
    for j in range(n):
        nz = np.nonzero(a[j:, j])[0]
        if nz.size == 0:
            return 0, None
        piv = j + int(nz[0])
        if piv != j:
            a[[j, piv]] = a[[piv, j]]
            det = -det
        det = det * int(a[j, j]) % m
        inv = pow(int(a[j, j]), -1, m)
        f = a[j + 1 :, j] * inv % m
        a[j + 1 :, j:] = (a[j + 1 :, j:] - f[:, None] * a[j, j:]) % m
    x = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        acc = int(a[i, i + 1 : n] @ x[i + 1 : n]) if i + 1 < n else 0
        x[i] = (int(a[i, n]) - acc) * pow(int(a[i, i]), -1, m) % m
    return det % m, [int(t) for t in x]


def _charpoly_mod_py(rows: list[list[int]], m: int) -> list[int]:
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


def _charpoly_mod_np(rows: list[list[int]], m: int) -> list[int]:
    n = len(rows)
    h = np.array(rows, dtype=np.int64) % m
    for j in range(n - 2):
        nz = np.nonzero(h[j + 1 :, j])[0]
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv]] = h[[piv, j + 1]]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        inv = pow(int(h[j + 1, j]), -1, m)
        f = h[j + 2 :, j] * inv % m
        h[j + 2 :, :] = (h[j + 2 :, :] - f[:, None] * h[j + 1, :]) % m
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ f) % m
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = np.zeros(n + 1, dtype=np.int64)
        cur[1 : k + 1] = prev[:k]
        cur = (cur - int(h[k - 1, k - 1]) * prev) % m
        if k > 1:
            w = np.zeros(k - 1, dtype=np.int64)
            beta = 1
            for i in range(k - 1, 0, -1):
                beta = beta * int(h[i, i - 1]) % m
                if beta == 0:
                    break
                w[i - 1] = int(h[i - 1, k - 1]) * beta % m
            cur = cur - w @ polys[: k - 1]
        polys[k] = cur % m
    return [int(c) for c in polys[n]]


def _use_numpy(bits: int, terms: int, max_abs: int) -> bool:
    """True when a numpy kernel cannot overflow int64 under moduli < 2**bits.

    Every intermediate is a sum of at most `terms` products of residues:
    1 for det elimination, which never sums over n; n for the charpoly
    matmuls and the solve back-substitution.  Entries must also survive the
    int64 conversion that precedes the first % m.
    """
    return terms * ((1 << bits) - 1) ** 2 < 2**63 and max_abs < 2**62


# ---------------------------------------------------------------------------
# matrices and polynomials
# ---------------------------------------------------------------------------


class IntMatrix:
    """Immutable dense matrix of Python integers, row-major."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows must have equal length")
        self.rows = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def max_abs(self) -> int:
        return max(abs(x) for row in self.rows for x in row)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.rows))

    def matvec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return [sum(a * x for a, x in zip(row, v)) for row in self.rows]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        amax, bmax = self.max_abs(), other.max_abs()
        # int64 fast path when the product cannot overflow
        if amax and bmax and self.ncols * amax * bmax < 2**62:
            prod = np.array(self.rows, dtype=np.int64) @ np.array(other.rows, dtype=np.int64)
            return IntMatrix(prod.tolist())
        cols = list(zip(*other.rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )


class IntPoly:
    """Univariate polynomial with integer coefficients; coeffs[i] is the
    coefficient of x**i, trailing zeros trimmed (zero polynomial = ())."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = list(int(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative exponent")
        out = IntPoly((1,))
        for _ in range(e):
            out = out * self
        return out

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def _require_square(m: IntMatrix) -> None:
    if not m.is_square:
        raise ValueError(f"square matrix required, got {m.nrows}x{m.ncols}")


def det_bareiss(m: IntMatrix) -> int:
    """Fraction-free Bareiss elimination; every intermediate stays integral."""
    _require_square(m)
    a = m.to_lists()
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai, ak = a[i], a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def _hadamard_squared(rows: Sequence[Sequence[int]]) -> int:
    h2 = 1
    for row in rows:
        norm = sum(x * x for x in row)
        if norm == 0:
            return 0
        h2 *= norm
    return h2


def _det_crt(m: IntMatrix) -> int:
    rows = m.to_lists()
    h2 = _hadamard_squared(rows)
    if h2 == 0:
        return 0
    target = 2 * (math.isqrt(h2) + 1)
    bits = _moduli_bits()
    kernel = _det_mod_np if _use_numpy(bits, 1, m.max_abs()) else _det_mod_py
    residues, used, prod = [], [], 1
    for mod in moduli(bits):
        residues.append(kernel(rows, mod))
        used.append(mod)
        prod *= mod
        if prod > target:
            return crt_symmetric(residues, used)
    raise InternalError("CRT modulus set exhausted in det")


def det(m: IntMatrix) -> int:
    """Exact determinant: Bareiss for n <= 8, multi-modular CRT above."""
    _require_square(m)
    if m.nrows <= 8:
        return det_bareiss(m)
    return _det_crt(m)


def adjugate_apply(m: IntMatrix, v: Sequence[int]) -> tuple[list[int], int]:
    """(adj(m) @ v, det(m)) exactly, for invertible m, via modular solves.

    Stays division-free at the caller: adj(m) @ v = det(m) * m^{-1} v is an
    integer vector, reconstructed entrywise by CRT.  Moduli dividing det(m)
    are skipped for the solve.
    """
    _require_square(m)
    if len(v) != m.nrows:
        raise ValueError("vector length mismatch")
    rows = m.to_lists()
    h2 = _hadamard_squared(rows)
    if h2 == 0:
        raise ValueError("singular matrix")
    had = math.isqrt(h2) + 1
    det_target = 2 * had
    w_target = 2 * had * max(1, sum(abs(x) for x in v))
    bits = _moduli_bits()
    vmax = max(abs(x) for x in v)
    use_np = _use_numpy(bits, m.nrows, max(m.max_abs(), vmax))
    solve = _solve_mod_np if use_np else _solve_mod_py
    det_res, det_mods, det_prod = [], [], 1
    w_res, w_mods, w_prod = [], [], 1
    d = None
    for mod in moduli(bits):
        if d is not None and w_prod > w_target:
            break
        dm, x = solve(rows, v, mod)
        det_res.append(dm)
        det_mods.append(mod)
        det_prod *= mod
        if x is not None:  # moduli dividing det(m) cannot be solved, skip
            w_res.append([dm * xi % mod for xi in x])
            w_mods.append(mod)
            w_prod *= mod
        if d is None and det_prod > det_target:
            d = crt_symmetric(det_res, det_mods)
            if d == 0:
                raise ValueError("singular matrix")
    if d is None or w_prod <= w_target:
        raise InternalError("CRT modulus set exhausted in adjugate_apply")
    n = m.nrows
    w = [crt_symmetric([r[i] for r in w_res], w_mods) for i in range(n)]
    return w, d


def charpoly(m: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(x*I - m), exactly.

    Computed modulo word-sized primes via Hessenberg reduction over each
    prime field, with coefficients CRT-reconstructed against the bound
    C(n,k) * n^ceil(k/2) * B^k on the k-th elementary symmetric function of
    the eigenvalues (B = max entry magnitude).  The constant term is
    cross-checked against (-1)^n * det(m).
    """
    _require_square(m)
    n = m.nrows
    rows = m.to_lists()
    b = m.max_abs()
    if b == 0:
        return IntPoly([0] * n + [1])
    bound = max(
        math.comb(n, k) * n ** ((k + 1) // 2) * b**k for k in range(1, n + 1)
    )
    target = 2 * bound
    bits = _moduli_bits()
    kernel = _charpoly_mod_np if _use_numpy(bits, n, b) else _charpoly_mod_py
    residues, used, prod = [], [], 1
    for mod in moduli(bits):
        residues.append(kernel(rows, mod))
        used.append(mod)
        prod *= mod
        if prod > target:
            break
    else:
        raise InternalError("CRT modulus set exhausted in charpoly")
    coeffs = [
        crt_symmetric([r[i] for r in residues], used) for i in range(n + 1)
    ]
    poly = IntPoly(coeffs)
    if poly.coeffs[-1] != 1 or len(poly.coeffs) != n + 1:
        raise InternalError("characteristic polynomial is not monic after CRT")
    if poly.coeffs[0] != (-1) ** n * det(m):
        raise InternalError("charpoly constant term disagrees with determinant")
    return poly


# ---------------------------------------------------------------------------
# rational layer: matrix-determinant lemma and the 4-parameter expansion
# ---------------------------------------------------------------------------


def _solve_fraction(a: IntMatrix, b_cols: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve a @ X = B exactly over Q; b_cols is B as a list of columns."""
    n = a.nrows
    ncols = len(b_cols)
    aug = [
        [Fraction(x) for x in a.rows[i]] + [col[i] for col in b_cols]
        for i in range(n)
    ]
    for j in range(n):
        piv = next((i for i in range(j, n) if aug[i][j] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != j:
            aug[j], aug[piv] = aug[piv], aug[j]
        pj = aug[j]
        inv = 1 / pj[j]
        aug[j] = pj = [x * inv for x in pj]
        for i in range(n):
            if i != j and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [x - f * y for x, y in zip(aug[i], pj)]
    return [[aug[i][n + c] for c in range(ncols)] for i in range(n)]


def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    a = [row[:] for row in rows]
    n = len(a)
    out = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if a[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            a[j], a[piv] = a[piv], a[j]
            out = -out
        out *= a[j][j]
        inv = 1 / a[j][j]
        for i in range(j + 1, n):
            if a[i][j] != 0:
                f = a[i][j] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return out


def mdl_check(a: IntMatrix, u: IntMatrix, v: IntMatrix) -> bool:
    """Test |a + u v^T| == |I_m + v^T a^{-1} u| * |a| exactly over Q.

    a must be invertible; u and v are n x m.  Both sides are evaluated
    independently (the right side through a rational solve for a^{-1} u), so
    this doubles as a property test of the rational layer.
    """
    _require_square(a)
    if u.nrows != a.nrows or v.nrows != a.nrows or u.ncols != v.ncols:
        raise ValueError("u and v must be n x m with n matching a")
    da = det(a)
    if da == 0:
        raise ValueError("singular matrix")
    n, mm = u.nrows, u.ncols
    lhs = IntMatrix(
        [
            [
                a.rows[i][j] + sum(u.rows[i][k] * v.rows[j][k] for k in range(mm))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    u_cols = [[Fraction(u.rows[i][k]) for i in range(n)] for k in range(mm)]
    x = _solve_fraction(a, u_cols)  # a^{-1} u, n x m
    small = [
        [
            (Fraction(1) if r == c else Fraction(0))
            + sum(Fraction(v.rows[i][r]) * x[i][c] for i in range(n))
            for c in range(mm)
        ]
        for r in range(mm)
    ]
    return Fraction(det(lhs)) == _det_fraction(small) * da


@dataclass(frozen=True)
class ParamDet:
    """Closed form of |a_jk + x + f(j) y + g(k) z + f(j) g(k) w| as an affine
    combination of the five base determinants:

        alpha (1-x-y-z-w) + alpha1 x + alpha2 y + alpha3 z + alpha4 w
            + cross * (y z - w x),

    cross = alpha1 - alpha2 - alpha3 + alpha4 + (alpha2 alpha3 - alpha1 alpha4) / alpha.
    """

    alpha: int
    alpha1: int
    alpha2: int
    alpha3: int
    alpha4: int
    cross: Fraction

    def evaluate(self, x: int, y: int, z: int, w: int) -> Fraction:
        return (
            self.alpha * (1 - x - y - z - w)
            + self.alpha1 * x
            + self.alpha2 * y
            + self.alpha3 * z
            + self.alpha4 * w
            + self.cross * (y * z - w * x)
        )

    def basis_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in the basis {1, x, y, z, w, yz - wx}."""
        a = self.alpha
        return (
            Fraction(a),
            Fraction(self.alpha1 - a),
            Fraction(self.alpha2 - a),
            Fraction(self.alpha3 - a),
            Fraction(self.alpha4 - a),
            self.cross,
        )


def shifted_matrix(a: IntMatrix, f: Sequence[int], g: Sequence[int], x: int, y: int, z: int, w: int) -> IntMatrix:
    return IntMatrix(
        [
            [
                a.rows[i][j] + x + f[i] * y + g[j] * z + f[i] * g[j] * w
                for j in range(a.ncols)
            ]
            for i in range(a.nrows)
        ]
    )


def param_det_expand(
    a: IntMatrix,
    f: Sequence[int],
    g: Sequence[int],
    *,
    seed: int = 0,
    samples: int = 20,
) -> ParamDet:
    """Expand |a_jk + x + f(j) y + g(k) z + f(j) g(k) w| in closed form.

    Requires det(a) != 0.  The five base determinants are evaluated directly;
    the assembled closed form is then validated against the direct
    determinant at `samples` seeded integer points in [-9, 9]^4 (exactly), a
    mismatch raising InternalError.
    """
    _require_square(a)
    n = a.nrows
    if len(f) != n or len(g) != n:
        raise ValueError("f and g must have one value per row")
    alpha = det(a)
    if alpha == 0:
        raise ValueError("singular matrix: the expansion requires det != 0")
    a1 = det(shifted_matrix(a, f, g, 1, 0, 0, 0))
    a2 = det(shifted_matrix(a, f, g, 0, 1, 0, 0))
    a3 = det(shifted_matrix(a, f, g, 0, 0, 1, 0))
    a4 = det(shifted_matrix(a, f, g, 0, 0, 0, 1))
    cross = a1 - a2 - a3 + a4 + Fraction(a2 * a3 - a1 * a4, alpha)
    pd = ParamDet(alpha, a1, a2, a3, a4, cross)
    rng = random.Random(f"paramdet|{seed}")
    for _ in range(samples):
        x, y, z, w = (rng.randint(-9, 9) for _ in range(4))
        direct = det(shifted_matrix(a, f, g, x, y, z, w))
        if pd.evaluate(x, y, z, w) != direct:
            raise InternalError(
                f"closed form disagrees with direct determinant at {(x, y, z, w)}"
            )
    return pd
