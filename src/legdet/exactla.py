"""Exact dense linear algebra over arbitrary-precision integers.

Determinants and characteristic polynomials are computed modulo a
descending list of word-sized primes and CRT-reconstructed into the symmetric
range; the number of moduli is chosen per call from a bound on the result,
and as many are taken as the bound needs, so results are exact and
deterministic at every size.  Small determinants (n <= 8) go through
fraction-free Bareiss elimination instead, and build no moduli.  Every
solve, at every size, is one Bareiss elimination of [A | U] and exact
back-substitution for adj(A) U (`_adjugate_bareiss`).
There is no rational arithmetic: `ParamDet` holds its expansion times
det(a), an integer polynomial, and the matrix-determinant lemma is checked
in integers, through the adjugate.

A matrix is an integer numpy array, or nested lists of ints.  Each public
function turns its input into a kernel array in one place (`_int_array`):
int64 when every |entry| is below 2^62, an object array of Python ints
otherwise, never a dtype that numpy infers.  Row and column norms come from
one helper (`_sq_norms`), and their products stay Python ints.

Each modular operation has one numpy int64 kernel.  The moduli are sized
from the number of residue products an intermediate sums (`modulus_bits`),
so no kernel can overflow: 27 bits for det, and for charpoly up to
n = 512, then fewer; `_moduli_for` picks them for every operation.
Every determinant of an array goes through one door (`_dets`), which takes
each matrix as an array with a bound on |det| and a known divisor of det (1
where the caller names no prime q, see below): `det_many` sizes a matrix by
its row Hadamard bound, and `shifted_dets` sizes each four-parameter sample
a + s 1^T + t g^T by a column-multilinear bound (`_shifted_bounds`), which
does not count the shift once per row and so takes about a third fewer
moduli.  The samples are broadcast from a, f, g and the points in small
chunks (`_shifted_samples`, the one builder of shifted matrices).  The door
stacks every (matrix, modulus) pair of a batch as one slice of an int64
array and eliminates the whole stack at once (`_eliminate`), each slice with
its own modulus and its own pivot rows, so that numpy's per-call cost is
paid once per step of the stack rather than once per step of each modulus.

A caller that knows a prime q whose power fills most of a result names it
(`q=`); nothing here guesses one.  For any prime q, q^(n - r), r the rank
of M mod q (`_rank_mod`, a row-echelon count), divides det M: over the
integers localized at q, the Smith form of M has n - r invariant factors
divisible by q.  So CRT rebuilds only det / q^e over moduli other than q,
against ceil(bound / q^e), and multiplies back (`_known_divisor`).  The
record of p names p for its matrices, whose dets are almost all a power
of p; `shifted_dets` takes e = n - r - 2 from one rank of a for every
sample a + s 1^T + t g^T, a rank-2 update of a; the coefficient of x^(n-k)
of the charpoly, a sum of principal k x k minors of rank <= r mod q, takes
q^max(0, k - r).  A rank that came out too low would give a wrong result
and no other sign of it, so every divided reconstruction is checked mod one
more modulus outside its set (`_divided_crt`).  Below n = 9 no rank is
taken.  A caller that reads one matrix's det and charpoly takes its rank
once (`q_rank`) and hands it to both.

Both reductions, the elimination and the Hessenberg reduction behind the
characteristic polynomial (`_charpoly_mod`), are panel-blocked.  A panel
of up to 32 steps (`_panel_width`) stores its multipliers V and pivot rows
R instead of applying its row operations, so that the true matrix is the
stored one less V @ R; each step computes only the pivot column and row it
needs, with that correction, and at the end of the panel the rest of the
matrix takes all its updates as one int64 V @ R and is reduced once.  The
width is as large as int64 headroom above the largest modulus M allows:
every correction sums at most w products below (M-1)^2, plus an entry
below M.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import InternalError
from .ntheory import is_prime

#: How many moduli of each size `moduli` keeps.  They cover 6,912 bits at
#: 27 bits a modulus and 6,656 at 26, which the det and charpoly bounds of
#: A+ pass at n of about 1,200; at n = 2,046 they need 12,276 and 12,318
#: bits, and `_moduli_for` takes the primes below the kept ones.
_MODULI_KEPT = 256


def modulus_bits(terms: int) -> int:
    """Bits of the moduli for an operation whose intermediates each sum at
    most `terms` products of residues: terms * (m-1)^2 < 2^63 for every
    m < 2^bits, capped at 27.  terms is 1 for det, whose elimination budgets
    its own headroom (see `_eliminate`), and n for the charpoly matvecs:
    27 bits up to n = 512, 26 up to 2048."""
    return min(27, (63 - (terms - 1).bit_length()) // 2)


def _primes_below(m: int) -> Iterator[int]:
    """The odd primes below the odd number m, in descending order."""
    for q in range(m - 2, 2, -2):
        if is_prime(q):
            yield q


@lru_cache(maxsize=8)
def moduli(bits: int) -> tuple[int, ...]:
    """The first _MODULI_KEPT primes below 2**bits, in descending order."""
    return tuple(itertools.islice(_primes_below((1 << bits) + 1), _MODULI_KEPT))


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


#: A matrix as the functions below take it: an integer array, or nested
#: lists of ints (`_int_array` turns either into a kernel array).
Matrix = Union[np.ndarray, Sequence[Sequence[int]]]


def _max_abs(a: np.ndarray) -> int:
    """max |entry| of an int64 or Python-int array, exactly (-2^63 included)."""
    return max(-int(a.min()), int(a.max()))


def _int_array(m: Matrix) -> np.ndarray:
    """The nonempty 2-D integer matrix m as a kernel array: int64 when every
    |entry| is below 2^62, otherwise an object array of Python ints, which
    `_residues` brings into int64.  The one place where an input becomes a
    kernel array.  numpy never infers the dtype here: it would make
    [[2^63, 1]] float64 and feed a rounded value into a determinant.  So a
    float, unsigned or bool array, or an entry that is not an integer, is a
    ValueError."""
    a = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    if a.dtype.kind not in "iO":
        raise ValueError(f"integer matrix required, got dtype {a.dtype}")
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"nonempty 2-D matrix required, got shape {a.shape}")
    if a.dtype == object:
        try:  # every entry a Python int: an np.int64 inside would overflow
            a = np.frompyfunc(operator.index, 1, 1)(a)
        except TypeError:
            raise ValueError("matrix entries must be integers") from None
    return a.astype(np.int64 if _max_abs(a) < 2**62 else object, copy=False)


def _sq_norms(a: np.ndarray, axis: int = 1) -> list[int]:
    """The squared norms of the rows (axis 1) or columns (axis 0) of the
    kernel array a, as Python ints: in int64 when a sum of a.shape[axis]
    squares stays below 2^63, over Python ints otherwise."""
    if a.dtype != object and a.shape[axis] * _max_abs(a) ** 2 >= 2**63:
        a = a.astype(object)
    return (a * a).sum(axis=axis).tolist()


def _residues(a: np.ndarray, m) -> np.ndarray:
    """a mod m as a fresh int64 array, entries in [0, m); m is an int or an
    int64 array that broadcasts against a (one modulus per slice)."""
    return (a % m).astype(np.int64, copy=False)


def _reduce_block(x: np.ndarray, m: int) -> None:
    """x %= m in place, for int64 x.  numpy divides by a scalar through
    libdivide for // but not for %, so the floor quotient and one
    multiply-subtract take about 0.4 of np.remainder's time on a 200x200
    block.  The product q*m lies between x - m and x, so it cannot overflow."""
    q = x // m
    q *= m
    x -= q


def _panel_width(top: int) -> int:
    """Steps per panel for a largest modulus `top`: at most 32, and at most
    as many as (2^63 - 1 - top) // (top - 1)^2, so that an entry in
    [0, top) less the sum of that many products of residues stays in int64
    (2 at 2^31 - 1, 32 at 27 bits).  It is >= 1 whenever top^2 < 2^63,
    which `modulus_bits` guarantees for every kernel."""
    return min(32, (2**63 - 1 - top) // (top - 1) ** 2)


def _eliminate(a: np.ndarray, mods: np.ndarray) -> list[int]:
    """Gaussian elimination of the (S, n, n) int64 stack `a`, slice s over
    GF(mods[s]) with its entries in [0, mods[s]), in place; returns the
    determinant of each slice mod its modulus, 0 for a slice with no pivot
    in some column.

    Each slice has its own modulus and its own pivot rows: where the
    diagonal entry is zero, the first nonzero entry below it.  A slice
    without one keeps a zero pivot and gets zero multipliers, so its det is
    0 and the later steps leave it unchanged.  Pivot inverses and the
    running determinants are Python ints, one per slice.

    The steps run in panels of w = `_panel_width(M)` columns, M the largest
    modulus of the stack.  Within a panel the trailing block is not
    updated: step j computes only pivot column j and pivot row j, each as
    the block stood when the panel began less the panel's stored multipliers
    V (kept below the diagonal, in the panel's columns) times its stored
    pivot rows R (kept in place, reduced), an int64 product of fewer than w
    terms, then % m.  A row swap moves whole rows from the panel's first
    column on, so it swaps the rows of V too.  At the end of a panel the
    trailing block takes all its pending updates as one int64 V @ R and is
    reduced once.  Every correction sums at most w products below (M-1)^2
    and an entry below M, so none leaves int64 whatever mix of moduli the
    stack holds.  A nonsingular slice ends holding its reduced upper
    triangle.
    """
    n = a.shape[1]
    width = _panel_width(int(mods.max()))
    ms = mods.tolist()
    mcol = mods[:, None]
    det = [1] * len(ms)
    for j0 in range(0, n, width):
        end = min(j0 + width, n)
        for j in range(j0, end):
            col = a[:, j:, j]
            col -= (a[:, j:, j0:j] @ a[:, j0:j, j, None])[..., 0]
            np.remainder(col, mcol, out=col)
            piv = col[:, 0].tolist()
            if 0 in piv:  # swap in each such slice's first nonzero row, if any
                off = (col != 0).argmax(axis=1)
                swap = np.flatnonzero(off)
                lower = j + off[swap]
                upper = a[swap, j, j0:]
                a[swap, j, j0:] = a[swap, lower, j0:]
                a[swap, lower, j0:] = upper
                for s in swap.tolist():
                    det[s] = -det[s]
                piv = col[:, 0].tolist()
            row = a[:, j, j + 1 :]
            row -= (a[:, j, None, j0:j] @ a[:, j0:j, j + 1 :])[:, 0]
            np.remainder(row, mcol, out=row)
            det = [d * x % m for d, x, m in zip(det, piv, ms)]
            inv = [pow(x, -1, m) if x else 0 for x, m in zip(piv, ms)]
            col[:, 1:] *= np.array(inv, dtype=np.int64)[:, None]
            np.remainder(col[:, 1:], mcol, out=col[:, 1:])
        block = a[:, end:, end:]
        block -= a[:, end:, j0:end] @ a[:, j0:end, end:]
        np.remainder(block, mods[:, None, None], out=block)
    return det


def _charpoly_mod(a: np.ndarray, m: int) -> list[int]:
    """charpoly(a) mod m, coefficients from x^0 up: Hessenberg reduction by
    similarity over GF(m), then the charpoly of the Hessenberg form H.

    Step j takes the first nonzero entry of column j below the diagonal as
    its pivot (none: the step is skipped), swaps its row and column into
    place, subtracts multiples l of pivot row j+1 from the rows below it,
    and adds H[:, j+2:] @ l into column j+1.  The steps run in panels of
    w = `_panel_width(m)` (32 for every charpoly modulus), over H and the
    panel's multipliers V (a column l per step, nonzero below its pivot
    row) and pivot rows R, so that the true matrix is H - V @ R; a swap
    swaps the rows and columns of H, the rows of V and the columns of R.
    Column j enters step j true, so the step computes only its pivot row
    from V @ R, then its column operation, in one matvec over [H; R]:

        column j+1 = (H[:, j+1:] @ [1, l] % m) - V @ (R[:, j+1:] @ [1, l] % m),

    stored in H, so the next column enters true as well (a skipped step
    brings it up to date itself), and no later step of the panel reads R
    left of column j+2.  At the end of a panel the columns right of it take
    V @ R as one int64 product and are reduced once.  H and R stay reduced:
    a matvec sums fewer than n products below (m-1)^2, which
    `modulus_bits(n)` bounds, and every correction by V sums at most w
    products below (m-1)^2 plus an entry below m.
    """
    n = a.shape[0]
    width = _panel_width(m)
    # H in [:n, :n]; a panel's multipliers V in [:n, n:] and pivot rows R in [n:, :n]
    buf = np.zeros((n + width, n + width), dtype=np.int64)
    h, v, r = buf[:n, :n], buf[:n, n:], buf[n:, :n]
    h[:] = _residues(a, m)
    e = np.zeros(n, dtype=np.int64)  # [1, l] from entry j+1 on
    for j0 in range(0, n - 2, width):
        end = min(j0 + width, n - 2)
        v[:] = 0
        k = 0  # steps taken in this panel, rows of R written
        for j in range(j0, end):
            col = h[j + 1 :, j]
            if not col[0]:
                nz = np.flatnonzero(col)
                if nz.size == 0:  # skipped: column j+1 takes its updates here
                    nxt = h[:, j + 1]
                    nxt -= v[:, :k] @ r[:k, j + 1]
                    nxt %= m
                    continue
                piv = j + 1 + int(nz[0])
                buf[[j + 1, piv]] = buf[[piv, j + 1]]
                buf[:, [j + 1, piv]] = buf[:, [piv, j + 1]]
            # pivot row j+1, right of column j (the rows below are zero left of it)
            rk = r[k, j + 1 :]
            np.subtract(h[j + 1, j + 1 :], v[j + 1, :k] @ r[:k, j + 1 :], out=rk)
            rk %= m
            lk = e[j + 2 :]
            np.multiply(col[1:], pow(int(col[0]), -1, m), out=lk)
            lk %= m
            v[j + 2 :, k] = lk
            k += 1
            e[j + 1] = 1
            hr = buf[: n + k, j + 1 : n] @ e[j + 1 :]
            hr %= m
            hr[j0 + 2 : n] -= v[j0 + 2 :, :k] @ hr[n:]
            np.remainder(hr[:n], m, out=h[:, j + 1])
        block = h[j0 + 2 :, end + 1 :]
        block -= v[j0 + 2 :, :k] @ r[:k, end + 1 :]
        _reduce_block(block, m)
    diag, sub = np.diagonal(h), np.diagonal(h, -1)
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    # beta[i-1-lo] = h[i,i-1] * ... * h[k-1,k-2] for lo < i < k; the terms
    # with i <= lo, lo the last row whose subdiagonal entry is 0, vanish
    beta, lo = np.zeros(0, dtype=np.int64), 0
    for k in range(1, n + 1):
        prev, cur = polys[k - 1, :k], polys[k, : k + 1]  # degrees k-1 and k
        cur[1:] = prev
        cur[:k] -= int(diag[k - 1]) * prev
        if k > 1:
            if sub[k - 2]:
                beta = np.append(beta, 1) * int(sub[k - 2]) % m
            else:
                beta, lo = beta[:0], k - 1
            cur[: k - 1] -= (h[lo : k - 1, k - 1] * beta % m) @ polys[lo : k - 1, : k - 1]
        np.remainder(cur, m, out=cur)
    return [int(c) for c in polys[n]]


def _rank_mod(a: np.ndarray, q: int) -> int:
    """The rank of the kernel array a over GF(q), q a prime below 2^31, by
    row echelon form: for each column, the first row at or below the current
    one with a nonzero entry there becomes the pivot row, and the rows below
    it take a rank-1 update.  A column with no such row is passed over, so,
    unlike `_eliminate`, a singular matrix gets its true rank.  Every product
    of two residues is below 2^62."""
    b = _residues(a, q)
    rows = len(b)
    rank = 0
    for j in range(b.shape[1]):
        nz = np.flatnonzero(b[rank:, j])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            b[[rank, piv]] = b[[piv, rank]]
        row = b[rank, j + 1 :] * pow(int(b[rank, j]), -1, q) % q
        below = b[rank + 1 :, j + 1 :]
        below -= b[rank + 1 :, j, None] * row
        _reduce_block(below, q)
        rank += 1
        if rank == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


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


def _square(m: Matrix) -> np.ndarray:
    """m as a kernel array (`_int_array`); ValueError unless it is square."""
    a = _int_array(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got {a.shape[0]}x{a.shape[1]}")
    return a


def det_bareiss(m: Matrix) -> int:
    """Fraction-free Bareiss elimination; every intermediate stays integral."""
    return _bareiss(_square(m).tolist())


def _bareiss(a: list[list[int]]) -> int:
    """det of the leading n x n block of the n rows `a`, by Bareiss
    elimination, which overwrites them; 0 as soon as a column has no pivot.

    The rows may be longer than n, [A | U]: the extra columns take the same
    steps, and every division stays exact, since after step k each entry
    right of column k is a (k+2) x (k+2) minor of the rows as swapped
    (Bareiss, Math. Comp. 1968).  On a nonzero det the rows end as [T | C],
    T upper triangular with T^-1 C = A^-1 U (`_adjugate_bareiss`)."""
    n = len(a)
    width = len(a[0])
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
            for j in range(k + 1, width):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def _ceil_sqrt(q: int) -> int:
    return math.isqrt(q - 1) + 1 if q else 0


def _moduli_for(terms: int, target: int, avoid: int = 1, check: bool = False) -> list[int]:
    """The moduli sized for `terms` that do not divide `avoid`, taken in
    descending order until their product exceeds target: the kept ones
    (`moduli`), then as many primes below them as the target needs; with
    `check`, one more after them, the cross-check modulus of
    `_divided_crt`.  ValueError when avoid is 0, which every modulus
    divides."""
    if avoid == 0:
        raise ValueError("no modulus avoids 0")
    kept = moduli(modulus_bits(terms))
    used, prod = [], 1
    for mod in itertools.chain(kept, _primes_below(kept[-1])):
        if avoid % mod:
            if prod > target:  # reached only with check
                return [*used, mod]
            used.append(mod)
            prod *= mod
            if prod > target and not check:
                return used
    raise InternalError("CRT modulus set exhausted")


def _divided_crt(residues: Sequence[int], used: Sequence[int], divisor: int) -> int:
    """The integer x from its residues over `used`, given that `divisor`
    divides it: y = x / divisor is reconstructed into the symmetric range
    from x * divisor^-1 over every modulus but the last, then x = y * divisor
    is checked against its residue mod the last, the cross-check modulus,
    which no other step reads.  InternalError if they disagree: a divisor
    that does not divide x (from a rank that came out too low) gives a wrong
    y and nothing else that shows it."""
    *mods, check = used
    *rs, r_check = residues
    x = crt_symmetric([r * pow(divisor, -1, m) % m for r, m in zip(rs, mods)], mods) * divisor
    if (x - r_check) % check:
        raise InternalError(f"CRT cross-check mod {check} failed: the known divisor does not divide the result")
    return x


#: Bytes of one stack of the det kernel.  Eliminating it needs one
#: temporary as large again, each panel's V @ R over the trailing blocks
#: (the per-step temporaries are a column and a row per slice), so a call
#: adds about twice this to the heap; at n = 53 it holds 23 slices, and a
#: larger stack is not faster there.
#: A chunk of shifted samples (`_shifted_samples`) is held to an eighth of
#: it: at n = 53, three samples, whose 7 or so moduli each fill most of a
#: stack, so that the next chunk adds little to the stack and its temporary.
_STACK_BYTES = 1 << 19


def _crt_dets(items: Iterable[tuple[np.ndarray, int, int]]) -> list[int]:
    """Exact determinants of the square arrays of `items`, in order, by the
    stacked kernel and CRT, whatever their size.  Each item is an int64 (or
    Python-int object) array, a bound on |det| (0 gives 0) and a known
    divisor of det, 1 or a power q^e of a prime (`_known_divisor`).

    Each array gets its own moduli, enough for ceil(bound / divisor), and
    each (array, modulus) pair is one slice of an int64 stack.  An array with
    a divisor above 1 takes moduli other than q, and one more, and its det
    comes from `_divided_crt`.  Consecutive slices of equal size are packed,
    in order, into stacks of at most _STACK_BYTES (one slice, if a slice is
    larger), and each stack is one `_eliminate` call.  `items` is read
    lazily: a generator has at most one stack's arrays alive.
    """
    out: list[int] = []
    owners: dict[int, tuple[list[int], list[int], int]] = {}  # index: residues, moduli, divisor
    slices: list[tuple[int, np.ndarray, int]] = []  # index, array, modulus

    def run() -> None:
        mods = np.array([mod for _, _, mod in slices], dtype=np.int64)
        stack = np.stack([data for _, data, _ in slices])
        if stack.dtype == object:  # an entry reaches 2^62
            stack = _residues(stack, mods[:, None, None])
        else:  # in place: a fresh array of this size costs as much again
            np.remainder(stack, mods[:, None, None], out=stack)
        for (i, _, _), r in zip(slices, _eliminate(stack, mods)):
            residues, used, divisor = owners[i]
            residues.append(r)
            if len(residues) == len(used):
                out[i] = crt_symmetric(residues, used) if divisor == 1 else _divided_crt(residues, used, divisor)
                del owners[i]
        slices.clear()

    for i, (data, bound, divisor) in enumerate(items):
        out.append(0)
        if bound == 0:
            continue
        owners[i] = ([], _moduli_for(1, 2 * -(-bound // divisor), divisor, divisor > 1), divisor)
        fit = max(1, _STACK_BYTES // (8 * data.size))
        for mod in owners[i][1]:
            if slices and (len(slices) == fit or slices[0][1].shape != data.shape):
                run()
            slices.append((i, data, mod))
    if slices:
        run()
    return out


#: The largest n whose determinant `_dets` takes by Bareiss elimination,
#: which reads no bound, so callers compute none there.
_BAREISS_MAX = 8


def _dets(items: Iterable[tuple[np.ndarray, int | None, int]]) -> list[int]:
    """Exact determinants of the square arrays of `items` (array, bound on
    |det|, known divisor of det), in order, in one pass: Bareiss for
    n <= _BAREISS_MAX, which reads neither bound nor divisor, the stacked
    kernel (`_crt_dets`) above.  Every determinant of an array goes through
    here; only `mdl_check`'s products, rows of Python ints, and the adjugate
    solve take Bareiss directly."""
    out: list[int | None] = []  # None: left to the stacked kernel

    def large():
        for data, bound, divisor in items:
            out.append(_bareiss(data.tolist()) if len(data) <= _BAREISS_MAX else None)
            if out[-1] is None:
                yield data, bound, divisor

    crt = iter(_crt_dets(large()))
    return [next(crt) if d is None else d for d in out]


def _row_bound(a: np.ndarray) -> int:
    """The row Hadamard bound on |det a| (0 for a zero row)."""
    h2 = math.prod(_sq_norms(a))
    return math.isqrt(h2) + 1 if h2 else 0


def q_rank(m: Matrix, q: int | None) -> int | None:
    """The rank of the square m mod the prime q where `det_many` and
    `charpoly` would take one, for a caller that hands the same rank to
    both; None where they take none, when q is None or n <= 8."""
    a = _square(m)
    return None if q is None or len(a) <= _BAREISS_MAX else _rank_mod(a, q)


def _known_divisor(a: np.ndarray, q: int | None, updates: int = 0, rank: int | None = None) -> int:
    """q^e with e = n - rank(a mod q) - updates, at least 0, or 1 when q is
    None: a divisor of det(a), and of the det of every matrix that differs
    from a by a matrix of rank <= `updates`, whose rank mod q is at most
    rank(a mod q) + updates.  Over the integers localized at q, the Smith
    form of such a matrix M has at least n - rank(M mod q) invariant factors
    divisible by q (Saunders and Wan, ISSAC 2004).  The rank is taken here
    unless the caller passes it."""
    if q is None:
        return 1
    if rank is None:
        rank = _rank_mod(a, q)
    return q ** max(0, len(a) - rank - updates)


def det_many(matrices: Iterable[Matrix], q: int | None = None, ranks: Sequence[int | None] = ()) -> list[int]:
    """Exact determinants of the square `matrices`, in order, each sized
    by its row Hadamard bound, in one pass over `matrices` (`_dets`).  A
    prime q, when the caller names one, divides each det above n = 8 by
    q^(n - rank mod q) before CRT (`_known_divisor`); `ranks`, when given,
    holds each matrix's rank mod q (`q_rank`), or None to take it here."""

    def items():
        for a, rank in itertools.zip_longest(map(_square, matrices), ranks):
            if len(a) <= _BAREISS_MAX:
                yield a, None, 1
            else:
                yield a, _row_bound(a), _known_divisor(a, q, rank=rank)

    return _dets(items())


def det(m: Matrix, q: int | None = None) -> int:
    """Exact determinant: Bareiss for n <= 8, multi-modular CRT above,
    divided by the power of q that the rank mod q forces when q is named."""
    return det_many([m], q)[0]


def _adjugate_bareiss(a: np.ndarray, u: np.ndarray) -> tuple[list[list[int]], int]:
    """(adj(a) @ u as rows of Python ints, det(a)) from one Bareiss
    elimination of the rows [a | u] (`_bareiss`), which leaves [T | C] and
    d = det(a), then exact back-substitution: y = d a^-1 u solves T y = d C,
    and is integral, so each

        y_i = (d c_i - sum_{j>i} t_ij y_j) / t_ii

    is an exact division.  ValueError when a is singular."""
    n, k = u.shape
    rows = [r + c for r, c in zip(a.tolist(), u.tolist())]
    d = _bareiss(rows)
    if d == 0:
        raise ValueError("singular matrix")
    y: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        t = rows[i]
        y[i] = [
            (d * t[n + c] - sum(t[j] * y[j][c] for j in range(i + 1, n))) // t[i]
            for c in range(k)
        ]
    return y, d


def adjugate_apply(m: Matrix, u: Matrix) -> tuple[np.ndarray, int]:
    """(adj(m) @ u, det(m)) exactly, for invertible m and u with m's rows;
    adj(m) @ u is an n x k object array of Python ints.  ValueError when m
    is singular.

    Division-free for the caller: at every n, one fraction-free elimination
    of [m | u] gives det(m) and adj(m) @ u exactly, with no moduli
    (`_adjugate_bareiss`).
    """
    a, u = _square(m), _int_array(u)
    if u.shape[0] != len(a):
        raise ValueError("u must have one row per row of m")
    w, d = _adjugate_bareiss(a, u)
    return np.array(w, dtype=object), d


def _charpoly_bounds(a: np.ndarray) -> list[int]:
    """A bound on the coefficient of x^(n-k) of charpoly(a), for k = 0..n.
    That coefficient is, up to sign, the sum of the C(n, k) principal k x k
    minors, and Hadamard bounds each by the product of its k row norms, so
    by the square root of the product of the k largest squared row norms;
    once that product is 0, every such minor has a zero row."""
    norms = sorted(_sq_norms(a), reverse=True)
    bounds, prod = [1], 1
    for k, norm in enumerate(norms, 1):
        prod *= norm
        bounds.append(math.comb(len(norms), k) * _ceil_sqrt(prod))
    return bounds


def charpoly(m: Matrix, d: int | None = None, q: int | None = None, rank: int | None = None) -> IntPoly:
    """Monic characteristic polynomial det(x*I - m), exactly.

    Computed modulo word-sized primes via Hessenberg reduction over each
    prime field, with coefficients CRT-reconstructed against
    `_charpoly_bounds`.  A prime q, when the caller names one and n > 8,
    divides the coefficient of x^(n-k) by q^max(0, k - r), r = rank(m mod q),
    taken here unless the caller passes it (`q_rank`): each of its principal
    k x k minors has rank at most r mod q.  The moduli then avoid q, cover
    the largest bound_k / q^max(0, k - r), and one more cross-checks every
    coefficient (`_divided_crt`).  The constant term is cross-checked against
    (-1)^n * d, d = det(m), computed here with the same q and rank unless the
    caller passes it.
    """
    a = _square(m)
    n = len(a)
    if q is None or n <= _BAREISS_MAX:
        rank = n
    elif rank is None:
        rank = _rank_mod(a, q)
    # the known divisor of the coefficient of x^i, from x^0 up: k = n - i
    divisors = [1] * (n + 1) if rank == n else [q ** max(0, n - i - rank) for i in range(n + 1)]
    bounds = _charpoly_bounds(a)[::-1]
    target = 2 * max(-(-b // dv) for b, dv in zip(bounds, divisors))
    # divisors[0], of the constant term, is the largest, and above 1 exactly
    # when the rank is below n: then every coefficient is divided and checked
    used = _moduli_for(n, target, divisors[0], rank < n)
    residues = zip(*(_charpoly_mod(a, mod) for mod in used))
    if rank < n:
        poly = IntPoly(_divided_crt(r, used, dv) for r, dv in zip(residues, divisors))
    else:
        poly = IntPoly(crt_symmetric(r, used) for r in residues)
    if poly.coeffs[-1] != 1 or len(poly.coeffs) != n + 1:
        raise InternalError("characteristic polynomial is not monic after CRT")
    if d is None:
        [d] = det_many([a], q, [rank])
    if poly.coeffs[0] != (-1) ** n * d:
        raise InternalError("charpoly constant term disagrees with determinant")
    return poly


# ---------------------------------------------------------------------------
# matrix-determinant lemma and the 4-parameter expansion
# ---------------------------------------------------------------------------


def _dot(x: Iterable[int], y: Iterable[int]) -> int:
    return sum(map(operator.mul, x, y))


def mdl_check(a: Matrix, u: Matrix, v: Matrix) -> bool:
    """Test the matrix-determinant lemma |a + u v^T| = |a| |I_m + v^T a^{-1} u|
    in integers: with d = |a|, d^(m-1) |a + u v^T| = |d I_m + v^T adj(a) u|.

    a must be invertible (ValueError otherwise); u and v are n x m.  The
    left side is a direct determinant; the right side takes adj(a) u and d
    from one `adjugate_apply` call, one Bareiss elimination of [a | u].
    Both products, which nothing bounds, are formed over Python ints, and
    their dets come from Bareiss on the rows.
    """
    a, u, v = _square(a), _int_array(u), _int_array(v)
    if u.shape != v.shape or len(u) != len(a):
        raise ValueError("u and v must be n x m with n matching a")
    w, d = adjugate_apply(a, u)
    us, vs = u.tolist(), v.tolist()
    big = [[x + _dot(ui, vj) for x, vj in zip(row, vs)] for row, ui in zip(a.tolist(), us)]
    small = [[_dot(vl, wc) for wc in w.T.tolist()] for vl in zip(*vs)]
    for i, row in enumerate(small):
        row[i] += d
    return d ** (len(small) - 1) * _bareiss(big) == _bareiss(small)


@dataclass(frozen=True)
class ParamDet:
    """Closed form of |a_jk + x + f(j) y + g(k) z + f(j) g(k) w| from the
    five base determinants alpha = det(a) != 0 and alpha1..alpha4 at the
    unit points, held as alpha times the determinant, an integer polynomial,
    so that no rational arithmetic is needed:

        alpha (alpha (1-x-y-z-w) + alpha1 x + alpha2 y + alpha3 z + alpha4 w)
            + cross_num (y z - w x),

    cross_num = alpha (alpha1 - alpha2 - alpha3 + alpha4) + alpha2 alpha3 - alpha1 alpha4.
    """

    alpha: int
    alpha1: int
    alpha2: int
    alpha3: int
    alpha4: int
    cross_num: int = field(init=False)

    def __post_init__(self):
        a, a1, a2, a3, a4 = self.alpha, self.alpha1, self.alpha2, self.alpha3, self.alpha4
        object.__setattr__(self, "cross_num", a * (a1 - a2 - a3 + a4) + a2 * a3 - a1 * a4)

    def scaled(self, x: int, y: int, z: int, w: int) -> int:
        """alpha times the determinant at (x, y, z, w)."""
        a = self.alpha
        affine = a * (1 - x - y - z - w) + self.alpha1 * x + self.alpha2 * y + self.alpha3 * z + self.alpha4 * w
        return a * affine + self.cross_num * (y * z - w * x)


def _shifted_samples(a: np.ndarray, f: Sequence[int], g: Sequence[int], points: Sequence[tuple[int, int, int, int]]):
    """The shifted matrix of the kernel array `a` at each of `points`, in
    order, as (n, n) arrays: a + s 1^T + t g^T, entry (i, j) = a_ij + x
    + f_i y + g_j z + f_i g_j w, with s = x + f y and t = z + f w.

    The samples are broadcast from a, g, s and t, a chunk of at most
    _STACK_BYTES / 8 at a time, as int64 when a is int64, so every |a_ij|
    is below 2^62 (`_int_array`'s rule), and max|s| + max|g| max|t| is
    below 2^62 too, so that no sum reaches 2^63; as Python ints otherwise.
    """
    n = len(a)
    if len(f) != n or len(g) != n:
        raise ValueError("f and g must have one value per row")
    # every shift input and every partial sum or product is at most this total
    fa = max(1, *map(abs, f))
    most = [max((abs(pt[c]) for pt in points), default=0) for c in range(4)]
    s_max = most[0] + fa * max(1, most[1])
    t_max = most[2] + fa * max(1, most[3])
    big = a.dtype == object or s_max + max(1, *map(abs, g)) * t_max >= 2**62
    dtype = object if big else np.int64
    av = a.astype(dtype, copy=False)
    fv, gv = np.array(f, dtype=dtype), np.array(g, dtype=dtype)
    pts = np.array(points, dtype=dtype).reshape(-1, 4)
    s = pts[:, :1] + pts[:, 1:2] * fv
    t = pts[:, 2:3] + pts[:, 3:4] * fv
    chunk = max(1, _STACK_BYTES // (64 * n * n))
    for lo in range(0, len(pts), chunk):
        block = t[lo : lo + chunk, :, None] * gv
        block += s[lo : lo + chunk, :, None]
        block += av
        yield from block


def _shifted_bounds(a: np.ndarray, f: Sequence[int], g: Sequence[int], points: Sequence[tuple[int, int, int, int]]):
    """A bound on |det| of the shifted matrix of `a` at each of `points`
    (`_shifted_samples`), in order, from multilinearity in the columns.

    Column k is a_k + s + g_k t.  The terms of the expansion that take s
    twice or t twice vanish, and Hadamard's inequality bounds the rest, so
    with integers c_k = max(1, ceil |a_k|) and C = prod c_k,

        |det| <= C + |s| sum C/c_k + |t| sum |g_k| C/c_k
                 + |s| |t| ceil((sum C/c_k)(sum |g_l| C/c_l) / C),

    the last term covering the sum over k != l of |s| |g_l| |t| C/(c_k c_l).
    |s| and |t| are rounded up, from |u + f v|^2 = n u^2 + 2uv sum f
    + v^2 sum f^2; everything is in Python ints.
    """
    n = len(a)
    c = [max(1, _ceil_sqrt(q)) for q in _sq_norms(a, axis=0)]
    prod = math.prod(c)
    sum_s = sum(prod // ck for ck in c)
    sum_t = sum(abs(gk) * (prod // ck) for gk, ck in zip(g, c))
    both = -(-sum_s * sum_t // prod)
    f1, f2 = sum(f), sum(fi * fi for fi in f)
    for x, y, z, w in points:
        ns = _ceil_sqrt(n * x * x + 2 * x * y * f1 + y * y * f2)
        nt = _ceil_sqrt(n * z * z + 2 * z * w * f1 + w * w * f2)
        yield prod + ns * sum_s + nt * sum_t + ns * nt * both


def shifted_dets(
    a: Matrix, f: Sequence[int], g: Sequence[int], points: Sequence[tuple[int, int, int, int]], q: int | None = None
) -> list[int]:
    """Exact determinants of |a_jk + x + f(j) y + g(k) z + f(j) g(k) w| at
    each of `points`, in order, each sized by its column-multilinear bound
    (`_shifted_bounds`): Bareiss for n <= 8, the stacked kernel above.  A
    prime q, when the caller names one and n > 8, divides every sample's det
    by q^(n - rank(a mod q) - 2), from one rank of a: each sample is
    a + s 1^T + t g^T, a rank-2 update of a (`_known_divisor`)."""
    a = _square(a)
    samples = _shifted_samples(a, f, g, points)
    if len(a) <= _BAREISS_MAX:
        return _dets((s, None, 1) for s in samples)
    divisor = _known_divisor(a, q, updates=2)
    return _dets((s, b, divisor) for s, b in zip(samples, _shifted_bounds(a, f, g, points)))


def param_det_expand(
    a: Matrix,
    f: Sequence[int],
    g: Sequence[int],
    points: Sequence[tuple[int, int, int, int]],
    alpha: int | None = None,
    q: int | None = None,
) -> tuple[ParamDet, list[int]]:
    """Expand |a_jk + x + f(j) y + g(k) z + f(j) g(k) w| in closed form.

    Requires det(a) != 0; a caller that knows det(a) passes it as `alpha`.
    The base determinants, and the direct determinant at each of `points`,
    come from one `shifted_dets` call, which takes the caller's prime q, if
    any, for its known divisor.  Returns the ParamDet with the direct
    determinants, in the order of `points`; comparing alpha times those with
    `ParamDet.scaled` (and with any closed form they bear on) is the
    caller's check.
    """
    base = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    if alpha is None:
        base.insert(0, (0, 0, 0, 0))
    dets = shifted_dets(a, f, g, [*base, *points], q)
    if alpha is None:
        alpha = dets.pop(0)
    if alpha == 0:
        raise ValueError("singular matrix: the expansion requires det != 0")
    return ParamDet(alpha, *dets[:4]), dets[4:]
