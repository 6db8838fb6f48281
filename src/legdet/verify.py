"""The identity catalog: every determinant evaluation, congruence, spectral
claim, and conjectured congruence as an executable check.

A check takes a prime in the right residue class (the two random-instance
suites take only a seed) and returns a CheckResult whose witness carries the
computed quantities, or a re-runnable counterexample when it fails.  The
determinant closed forms are checked in two layers per prime, by one helper
(`_two_layer`), from the one statement of each closed form (`rhs`): the
four-parameter expansion, assembled from five base determinants, is compared
with the closed form at the 15 points of coordinate sum <= 2, on which two
polynomials of degree <= 2 that agree are equal (a complete proof of the
polynomial identity for that prime, given the expansion theorem), and the
direct determinant at each of 20 points drawn from the check's seeded stream
is compared with both the expansion and the closed form.  All comparisons
are in integers, multiplied through by det(a).  Each per-prime value that
checks share is computed once per prime and kept in p's record
(`charmat.at`), which `legdet compute` reads too: the invariants, the
half-range sums, the named matrices with their dets and charpolys (at
p ≡ 3 (mod 4), A- = A+^T entry by entry, so det(A-) is det(A+)), and A+'s
expansion from its five base determinants, which T12_I/II, COR_AFTER_T12,
EQ_38II_QP and EQ_DP_U1AU0 read.  Each check computes only the sample
determinants it compares, and this module keeps no per-prime value; the
record and the symbol table keep the last prime's only.  Determinants that
are needed together come from one call: the base matrices' from
`det_many`, sized by the row Hadamard bound, and the shifted samples' from
`shifted_dets` (through `param_det_expand` or directly), sized by the
column-multilinear bound; the samples of A+ name p, and those of the Sun
matrix [((j+k)/p)] name 2, as the prime whose power the base matrix's rank
forces into every sample's det.  Every check computes in integers and
Fractions only: L25_EIGS takes the product of its character-sum eigenvalues
as the determinant of an integer circulant (`_eig_circulant`), and
T11_CHARPOLY_1MOD4 proves its two charpolys by an int64 certificate
(`_t11_certificate`), computing them only where it fails, so a passing
catalog runs no charpoly kernel.  It runs no modular solve either:
MDL_RANDOM's solves are single Bareiss eliminations
(`exactla.adjugate_apply`), and EQ_DP_U1AU0 reads u1^T adj(A+) 1 from the
base determinants of A+'s expansion, by the matrix-determinant lemma
(`_run_eq_dp_u1au0`).  A check that builds matrices (`MATRIX_IDS`) is
refused above `charmat.MATRIX_DIM_MAX`.  The two seed-only suites run once per seed in a
process, and take each instance's det(a) from `exactla.det` once; MDL_RANDOM's
solve finds it again in its own elimination.  Every prime range, `scan`'s
and the CLI's `verify`'s, runs through one loop (`run_range`): one sieve,
primes in ascending order, each prime's record delivered as soon as it is
done, and one tally of the outcomes.
"""

from __future__ import annotations

import copy
import itertools
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .charmat import at, require_matrix_prime, special_eigvecs, symbol_vector, theta_vector
from .errors import InternalError
from .exactla import (
    IntPoly,
    ParamDet,
    det,
    mdl_check,
    param_det_expand,
    shifted_dets,
)
from .ntheory import (
    TABLE_P_LIMIT,
    PrimeInvariants,
    factorial_half_mod,
    legendre_table,
    mordell_residue,
    primes_in_range,
    quad_char_sum,
    require_odd_prime,
    symbol_array,
)
from .realquad import unit_power_coeffs


class CheckId(Enum):
    T11_CHARPOLY_1MOD4 = "T11_CHARPOLY_1MOD4"
    T11_DET_1MOD4 = "T11_DET_1MOD4"
    T11_DET_3MOD4 = "T11_DET_3MOD4"
    T12_I = "T12_I"
    T12_II = "T12_II"
    COR_AFTER_T12 = "COR_AFTER_T12"
    EQ_38II_QP = "EQ_38II_QP"
    T13_DPMOD4 = "T13_DPMOD4"
    CONJ11_DP = "CONJ11_DP"
    L21_QUADSUM = "L21_QUADSUM"
    L22_GRAM = "L22_GRAM"
    L23_EIGVECS = "L23_EIGVECS"
    L24_EIGSPACE = "L24_EIGSPACE"
    L25_AP_NEG = "L25_AP_NEG"
    L25_EIGS = "L25_EIGS"
    ATHETA = "ATHETA"
    EQ_DP_U1AU0 = "EQ_DP_U1AU0"
    L41_SUMS = "L41_SUMS"
    EQ_DCOUNT = "EQ_DCOUNT"
    T31_RANDOM = "T31_RANDOM"
    MDL_RANDOM = "MDL_RANDOM"
    SUN_C31_I = "SUN_C31_I"
    SUN_C31_II = "SUN_C31_II"
    MORDELL = "MORDELL"


#: Checks of open conjectures: a failure here is a mathematical finding, not
#: an implementation bug, and gets its own exit code in the CLI.
CONJECTURE_IDS = frozenset({CheckId.CONJ11_DP})

#: Checks driven purely by seeded random instances; they ignore the prime.
RANDOM_IDS = frozenset({CheckId.T31_RANDOM, CheckId.MDL_RANDOM})

#: Checks that build p's matrices, (p-1)/2 square or one larger; every
#: other check reads only the symbol table and p's invariants.  Refused, as
#: a usage error, where n = (p-1)/2 is above `charmat.MATRIX_DIM_MAX`.
MATRIX_IDS = frozenset(CheckId) - RANDOM_IDS - {
    CheckId.T13_DPMOD4, CheckId.CONJ11_DP, CheckId.L21_QUADSUM,
    CheckId.L41_SUMS, CheckId.EQ_DCOUNT, CheckId.MORDELL,
}


@dataclass
class CheckResult:
    id: CheckId
    p: int | None
    passed: bool
    witness: dict
    elapsed: float


def _rng(seed: int, name: str, p: int | None = None) -> random.Random:
    tag = f"{seed}|{name}" if p is None else f"{seed}|{name}|{p}"
    return random.Random(tag)


def _sample_tuples(rng: random.Random, count: int = 20) -> list[tuple[int, int, int, int]]:
    return [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(count)]


def _sign_pow(e: int) -> int:
    return -1 if e % 2 else 1


def _det_3mod4(p: int) -> int:
    """|A+| = |A-| = (-1)^((h(-p)-1)/2) p^((p-3)/4) for p ≡ 3 (mod 4), p > 3,
    the value T11_DET_3MOD4, T12_II, COR_AFTER_T12 and EQ_38II_QP build on."""
    return _sign_pow((at(p).invariants.h_neg - 1) // 2) * p ** ((p - 3) // 4)


def _aplus_samples(p: int, points) -> list[tuple[tuple[int, int, int, int], int]]:
    """(point, direct determinant) of A+ shifted by the symbol vector at
    each of `points`, in one `shifted_dets` call that names p."""
    f = symbol_vector(p)
    return list(zip(points, shifted_dets(at(p).matrix("aplus"), f, f, points, p)))


#: The 15 points of N^4 with coordinate sum <= 2, which are unisolvent for
#: the polynomials of degree <= 2 in (x, y, z, w): two such polynomials
#: that agree on them are equal.
_DEGREE_2 = tuple(pt for pt in itertools.product(range(3), repeat=4) if sum(pt) <= 2)
#: 0 and the four unit points, where the expansion is its base determinants.
_BASE = tuple(pt for pt in _DEGREE_2 if sum(pt) <= 1)


def _two_layer(wit: dict, pd: ParamDet, samples, rhs, note="coefficient comparison failed", **layer1):
    """The verdict of a closed-form check, as (passed, witness).

    `rhs(x, y, z, w)` is the check's closed form, of degree <= 2, or None
    where there is none (T31_RANDOM).  Layer 1 sets each witness field of
    `layer1` to whether alpha * rhs and the expansion times alpha
    (`ParamDet.scaled`) agree on that field's points; on `_DEGREE_2` that
    proves the two polynomials equal.  `note` reports a layer-1 failure
    alone.  Layer 2 compares each (point, direct determinant) in `samples`
    with the expansion and with rhs, if any, all times alpha; the first
    disagreement becomes the witness's re-runnable counterexample.
    """
    alpha = pd.alpha
    for key, points in layer1.items():
        wit[key] = all(pd.scaled(*pt) == alpha * rhs(*pt) for pt in points)
    for point, direct in samples:
        scaled = pd.scaled(*point)
        if alpha * direct != scaled or rhs and alpha * rhs(*point) != scaled:
            expansion = str(Fraction(scaled, alpha))
            wit["note"] = f"sample mismatch at {list(point)}"
            wit["counterexample"] = {
                "point": list(point),
                "direct": str(direct),
                "closed_form": str(rhs(*point)) if rhs else expansion,
                "expansion": expansion,
            }
            return False, wit
    ok = all(wit[key] for key in layer1)
    if not ok:
        wit["note"] = note
    return ok, wit


# ---------------------------------------------------------------------------
# runners; each returns (passed, witness)
# ---------------------------------------------------------------------------


def _t11_certificate(p: int) -> bool:
    """Whether A+ and A- of p ≡ 1 (mod 4) satisfy the certificate that proves
    T11_CHARPOLY_1MOD4's two charpolys, with no charpoly computed
    (Kaltofen, Nehring and Saunders, ISSAC 2011):

      - A+ and A- are symmetric, so each is diagonalizable over the reals;
      - (A+^2 - I)(A+^2 - pI) = 0, so every eigenvalue of A+ is +-1 or
        +-sqrt(p); tr A+ = 0 gives +1 and -1 equal multiplicities, and
        +sqrt(p) and -sqrt(p) too, since sqrt(p) is irrational; then
        tr A+^2 = 2 + p(n - 2) leaves +-1 one each: charpoly(A+) =
        (x^2 - 1)(x^2 - p)^((p-5)/4);
      - A-^2 = pI and tr A- = 0 give charpoly(A-) = (x^2 - p)^((p-1)/4).

    All in int64: |entries of A+-| <= 2, so the entries of A+^2 are below
    4n + 1 and those of the quartic below n (4n + 1)(4n + p), under 2^40 at
    n = 2048."""
    rec = at(p)
    ap, am = rec.matrix("aplus"), rec.matrix("aminus")
    n = len(ap)
    eye = np.identity(n, dtype=np.int64)
    sq = ap @ ap
    return (
        np.array_equal(ap, ap.T)
        and np.array_equal(am, am.T)
        and np.trace(ap) == 0
        and np.trace(sq) == 2 + p * (n - 2)
        and not ((sq - eye) @ (sq - p * eye)).any()
        and np.trace(am) == 0
        and np.array_equal(am @ am, p * eye)
    )


def _run_t11_charpoly(p: int, seed: int):
    want_plus = IntPoly((-1, 0, 1)) * IntPoly((-p, 0, 1)) ** ((p - 5) // 4)
    want_minus = IntPoly((-p, 0, 1)) ** ((p - 1) // 4)
    if _t11_certificate(p):  # proved: the stated polynomials are the charpolys
        got_plus, got_minus = want_plus, want_minus
    else:  # computed, so that the witness shows them
        rec = at(p)
        rec.dets("aplus", "aminus")  # both cross-check determinants in one batch
        got_plus, got_minus = rec.charpoly("aplus"), rec.charpoly("aminus")
    ok = got_plus == want_plus and got_minus == want_minus
    wit = {"charpoly_aplus": str(got_plus), "charpoly_aminus": str(got_minus)}
    if not ok:
        wit["note"] = f"expected {want_plus} and {want_minus}"
    return ok, wit


def _run_t11_det_1mod4(p: int, seed: int):
    two = legendre_table(p)[2]
    want_plus = two * p ** ((p - 5) // 4)
    want_minus = two * p ** ((p - 1) // 4)
    dp_, dm = at(p).dets("aplus", "aminus")
    ok = dp_ == want_plus and dm == want_minus
    wit = {"det_aplus": str(dp_), "det_aminus": str(dm)}
    if not ok:
        wit["note"] = f"expected {want_plus} and {want_minus}"
    return ok, wit


def _run_t11_det_3mod4(p: int, seed: int):
    want = _det_3mod4(p)
    dp_, dm = at(p).dets("aplus", "aminus")
    ok = dp_ == dm == want
    wit = {"det_aplus": str(dp_), "det_aminus": str(dm), "h_neg": at(p).invariants.h_neg}
    if not ok:
        wit["note"] = f"expected both determinants = {want}"
    return ok, wit


def _run_t12_i(p: int, seed: int):
    n = (p - 1) // 2
    pd = at(p).aplus_expansion
    samples = _aplus_samples(p, _sample_tuples(_rng(seed, "T12_I", p)))
    m = (-p) ** ((p - 5) // 4)

    def rhs(x, y, z, w):
        return m * (n * n * w * x - (n * y - 1) * (n * z - 1))

    wit = {"alpha": str(pd.alpha)}
    return _two_layer(wit, pd, samples, rhs, coeffs_match=_DEGREE_2, base_dets_match=_BASE)


def _run_t12_ii(p: int, seed: int):
    inv = at(p).invariants
    n, c, d_p = inv.n, inv.c_p, inv.d_p
    d_det = _det_3mod4(p)
    e = (d_det // p) * (n + 2 * (d_p - c * c))  # p^((p-3)/4) >= p here
    pd = at(p).aplus_expansion
    samples = _aplus_samples(p, _sample_tuples(_rng(seed, "T12_II", p)))

    def rhs(x, y, z, w):
        return d_det * (1 - n * y - c * (w + x) + c * c * (w * x - y * z)) + e * (
            z + n * (w * x - y * z)
        )

    wit = {"det": str(d_det), "c_p": c, "d_p": d_p}
    return _two_layer(wit, pd, samples, rhs, coeffs_match=_DEGREE_2, base_dets_match=_BASE)


def _run_cor_after_t12(p: int, seed: int):
    inv = at(p).invariants
    n, c = inv.n, inv.c_p
    d_det = _det_3mod4(p)
    pd = at(p).aplus_expansion
    # each seeded (x, y, w) gives the points (x, y, 0, 0) and (0, y, 0, w); on
    # both, one of x and w is 0, so one form covers the two restrictions, and
    # it is affine on each, so 0, e1, e2 and e4 prove it
    points = [
        pt
        for x, y, _, w in _sample_tuples(_rng(seed, "COR_AFTER_T12", p))
        for pt in ((x, y, 0, 0), (0, y, 0, w))
    ]
    samples = _aplus_samples(p, points)

    def rhs(x, y, z, w):
        return d_det * (1 - c * (x + w) - n * y)

    wit = {"det": str(d_det)}
    return _two_layer(
        wit, pd, samples, rhs, "base determinant relations failed",
        base_dets_match=[pt for pt in _BASE if pt[2] == 0],
    )


def _run_eq_38ii_qp(p: int, seed: int):
    inv = at(p).invariants
    n, c, q = inv.n, inv.c_p, inv.q_p
    two = legendre_table(p)[2]
    d_det = _det_3mod4(p)

    def rhs(x, y, z, w):  # stated on z = 0 only
        return d_det * (1 - c * x - n * y - c * w) + d_det * two * 16 * q / p * w * x

    wit = {"q_p": f"{q.numerator}/{q.denominator}", "q_p_integral": q.denominator == 1}
    # layer 1 only: T12_II holds the expansion to direct determinants
    ok, wit = _two_layer(
        wit, at(p).aplus_expansion, (), rhs, "closed form with q_p does not match the expansion",
        coeffs_match=[pt for pt in _DEGREE_2 if pt[2] == 0],
    )
    if not q.denominator == 1:
        wit.setdefault("note", f"finding: q_p = {q} is not an integer")
    return ok, wit


def _run_t13(p: int, seed: int):
    inv = at(p).invariants
    ok = (inv.d_p + inv.n) % 4 == 0
    wit = {"d_p": inv.d_p, "n": inv.n}
    if not ok:
        wit["note"] = f"d_p = {inv.d_p} is not ≡ -{inv.n} (mod 4)"
    return ok, wit


def _run_conj11(p: int, seed: int):
    inv = at(p).invariants
    d_p = inv.d_p
    if p % 8 == 1:
        want, mod = 4 * (1 - _sign_pow((p - 1) // 8)), 16
    elif p % 8 == 5:
        want, mod = -2, 16
    else:
        want, mod = _sign_pow((inv.h_neg - 1) // 2) * inv.c_p, 8
    ok = (d_p - want) % mod == 0
    wit = {"d_p": d_p, "residue": d_p % mod, "expected": want % mod, "modulus": mod}
    if not ok:
        wit["note"] = f"counterexample: d_{p} = {d_p} ≢ {want} (mod {mod})"
    return ok, wit


def _run_l21(p: int, seed: int):
    rng = _rng(seed, "L21_QUADSUM", p)
    inv4 = pow(4, -1, p)
    cases = []
    for _ in range(10):  # force the p | b^2 - 4c branch
        b = rng.randint(-2 * p, 2 * p)
        cases.append((b, b * b * inv4 % p + p * rng.randint(-2, 2)))
    cases += [(rng.randint(-2 * p, 2 * p), rng.randint(-2 * p, 2 * p)) for _ in range(190)]
    for b, c in cases:
        got = quad_char_sum(b, c, p)
        want = p - 1 if (b * b - 4 * c) % p == 0 else -1
        if got != want:
            return False, {"note": f"sum {got} != {want} at (b={b}, c={c})"}
    return True, {"samples": len(cases)}


def _run_l22(p: int, seed: int):
    n = (p - 1) // 2
    sgn = 1 if p % 4 == 1 else -1
    ap, am = at(p).matrix("aplus"), at(p).matrix("aminus")
    idx = np.arange(1, n + 1)
    jk = symbol_array(p)[idx[:, None] * idx % p]  # ((jk)/p) as int8; jk < 2^60
    # (1 +- sgn) jk stays in [-2, 2], and subtracting it from diag widens it
    diag = p * np.identity(n, dtype=np.int64)
    want_plus = diag - 2 - (1 + sgn) * jk
    want_minus = diag - (1 - sgn) * jk
    # |entries of A+-| <= 2, so each entry of A+-^T A+- sums n terms of at
    # most 4: below 2^33 for every p a symbol table allows
    ok_plus = np.array_equal(ap.T @ ap, want_plus)
    ok_minus = np.array_equal(am.T @ am, want_minus)
    ok = ok_plus and ok_minus
    wit = {"gram_plus": ok_plus, "gram_minus": ok_minus}
    if not ok:
        wit["note"] = "Gram identity failed"
    return ok, wit


def _run_l23(p: int, seed: int):
    v1, v2 = special_eigvecs(p)
    # v1 is zero exactly at the residues; half of 1..n makes v1 and v2 nonzero
    if v1.count(0) != (p - 1) // 4:
        return False, {"note": "residues do not fill half of 1..n"}
    ap = at(p).matrix("aplus")
    # |entries| <= 2 on both sides: each sum of n products is below 4n
    wit = {"v1_fixed": (ap @ v1).tolist() == v1, "v2_negated": (ap @ v2).tolist() == [-t for t in v2]}
    ok = wit["v1_fixed"] and wit["v2_negated"]
    if not ok:
        wit["note"] = "eigenvector relations failed"
    return ok, wit


def _eigenspace_mismatch(p: int, sq: np.ndarray) -> tuple[int, int, int] | None:
    """The first (j0, ji, row), 1-based, at which A+^2 = `sq` fails
    sq (e_ji - e_j0) = p (e_ji - e_j0), for j0 the first index of each
    symbol group and ji the others, in ascending order; None if none."""
    n = (p - 1) // 2
    sym = symbol_array(p)[1 : n + 1]
    # the relation says that columns ji and j0 of sq - pI are equal
    m = sq - p * np.identity(n, dtype=np.int64)
    for want_sym in (1, -1):
        j0, *rest = np.flatnonzero(sym == want_sym).tolist()
        # one row per ji, so that C order is (ji, row) order
        bad = (m[:, rest] != m[:, [j0]]).T
        if bad.any():
            i, r = np.unravel_index(bad.argmax(), bad.shape)
            return j0 + 1, rest[i] + 1, int(r) + 1
    return None


def _run_l24(p: int, seed: int):
    ap = at(p).matrix("aplus")
    # |entries| <= 2: each sum of n products is below 4n
    found = _eigenspace_mismatch(p, ap @ ap)
    if found:
        j0, ji, r = found
        return False, {"note": f"A+^2 eigen relation failed at indices ({j0}, {ji}), row {r}"}
    return True, {"eigenspace_dim": (p - 1) // 2 - 2}


def _run_l25_ap_neg(p: int, seed: int):
    [d] = at(p).dets("ap")
    ok = d < 0
    wit = {"det_ap": str(d)}
    if not ok:
        wit["note"] = f"det = {d} is not negative"
    return ok, wit


def _prime_divisors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _primitive_root(p: int) -> int:
    qs = _prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise InternalError(f"no primitive root mod {p}")


def _eig_circulant(p: int, g: int) -> np.ndarray:
    """The n x n integer circulant C = [c_((k-j) mod n)], c_j = ((1 + g^j)/p)
    + ((1 - g^j)/p) for the primitive root g.  The character-sum eigenvalue
    lambda_r = sum_{k=1}^{p-1} ((k+1)/p) eta^(r ind_g(k)), eta = e^(2 pi i/n),
    is G(eta^r) for G(x) = sum_{j<n} c_j x^j, since k and -k have the same
    index mod n; so lambda_1, ..., lambda_n are C's eigenvalues, and their
    product is det C (Davis, Circulant Matrices, 1979)."""
    v = legendre_table(p)
    n = (p - 1) // 2
    c = np.array([v[(1 + x) % p] + v[(1 - x) % p] for x in (pow(g, j, p) for j in range(n))], dtype=np.int64)
    idx = np.arange(n)
    return c[(idx - idx[:, None]) % n]


def _run_l25_eigs(p: int, seed: int):
    v = legendre_table(p)
    lam_n = sum(v[(k + 1) % p] for k in range(1, p))  # the one real eigenvalue
    [d] = at(p).dets("ap")  # its sign is L25_AP_NEG's statement
    g = _primitive_root(p)
    d_c = det(_eig_circulant(p, g), p)
    ok = lam_n == -1 and d_c == d
    wit = {"lambda_n": lam_n, "det_ap": str(d), "product_checked": True, "primitive_root": g}
    if not ok:
        wit["note"] = f"eigenvalue claims failed: det C = {d_c}"
    return ok, wit


def _run_atheta(p: int, seed: int):
    th = theta_vector(p)
    n = (p - 1) // 2
    # |A+ entries| <= 2 and |theta_i| <= 4n: each sum is below 8n^2 < 2^63
    # for every n < 2^30, so for every p a symbol table allows
    got = (at(p).matrix("aplus") @ th).tolist()
    ok = got == [p] * n
    wit = {"theta_integral": True}
    if not ok:
        wit["note"] = f"A+ theta = {got} instead of {p} * ones"
    return ok, wit


def _run_eq_dp_u1au0(p: int, seed: int):
    inv = at(p).invariants
    pd = at(p).aplus_expansion
    # det(A + u v^T) = det A + v^T adj(A) u, and alpha3 is det(A+ + 1 u1^T),
    # the expansion at (0, 0, 1, 0): so u1^T adj(A+) 1 = alpha3 - alpha
    lhs = p * (pd.alpha3 - pd.alpha)
    rhs = pd.alpha * (inv.n + 2 * (inv.d_p - inv.c_p**2))
    ok = lhs == rhs
    wit = {"lhs": str(lhs), "rhs": str(rhs)}
    if not ok:
        wit["note"] = "division-free inner product identity failed"
    return ok, wit


def _run_l41(p: int, seed: int):
    s1 = at(p).invariants.c_p
    s2, sjk = at(p).half_range_sums
    want = 2 * s2 if p % 4 == 1 else -s1
    ok = sjk == want
    wit = {"S1": s1, "S2": s2, "SJK": sjk}
    if p % 4 == 1:
        ok = ok and s1 == 0
    if not ok:
        wit["note"] = f"double sum {sjk} != {want}"
    return ok, wit


def _run_eq_dcount(p: int, seed: int):
    inv = at(p).invariants
    n = inv.n
    s1 = inv.c_p
    s2 = at(p).half_range_sums[0]
    tail = -2 * s2 if p % 4 == 1 else s1
    want = 4 * inv.N - n * n - n * s1 + tail
    ok = inv.d_p == want
    wit = {"N": inv.N, "d_p": inv.d_p}
    if not ok:
        wit["note"] = f"counting identity gives {want}, d_p = {inv.d_p}"
    return ok, wit


def _random_int_matrix(rng: random.Random, n: int) -> np.ndarray:
    return np.array([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], dtype=np.int64)


def _nonsingular_matrix(rng: random.Random, n: int) -> tuple[np.ndarray, int]:
    """The first n x n draw with a nonzero determinant, with that determinant."""
    while True:
        a = _random_int_matrix(rng, n)
        d = det(a)
        if d != 0:
            return a, d


def _t31_instances(rng: random.Random, count: int):
    for i in range(count):
        n = rng.randint(1, 6)
        a, d = _nonsingular_matrix(rng, n)
        f = [rng.randint(-9, 9) for _ in range(n)]
        g = [rng.randint(-9, 9) for _ in range(n)]
        points = _sample_tuples(rng)
        pd, directs = param_det_expand(a, f, g, points, alpha=d)
        wit = {"instance": i, "matrix": a.tolist(), "f": f, "g": g}
        ok, wit = _two_layer(wit, pd, zip(points, directs), None)
        if not ok:
            return False, wit
    return True, {"instances": count}


def _mdl_instances(rng: random.Random, count: int):
    for i in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        a, _ = _nonsingular_matrix(rng, n)
        u = np.array([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        v = np.array([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        if not mdl_check(a, u, v):
            return False, {
                "note": f"matrix-determinant lemma failed at instance {i}",
                "matrix": a.tolist(),
                "u": u.tolist(),
                "v": v.tolist(),
            }
    return True, {"instances": count}


_DEFAULT_RANDOM_INSTANCES = 200


@lru_cache(maxsize=8)
def _seeded_suite(check_id: CheckId, count: int, seed: int) -> tuple[bool, dict]:
    """A seed-only suite's (passed, witness), computed once per process for
    each count and seed: it does not depend on the prime."""
    instances = _t31_instances if check_id is CheckId.T31_RANDOM else _mdl_instances
    return instances(_rng(seed, check_id.name), count)


def _suite_result(check_id: CheckId, count: int, seed: int) -> CheckResult:
    start = time.perf_counter()
    ok, wit = _seeded_suite(check_id, count, seed)
    # a copy, so that no caller can change the cached witness
    return CheckResult(check_id, None, ok, copy.deepcopy(wit), time.perf_counter() - start)


def t31_random_suite(count: int = 1000, seed: int = 0) -> CheckResult:
    """Seeded random-instance suite for the four-parameter expansion."""
    return _suite_result(CheckId.T31_RANDOM, count, seed)


def mdl_random_suite(count: int = 1000, seed: int = 0) -> CheckResult:
    """Seeded random-instance suite for |A + U V^T| = |I + V^T A^{-1} U| |A|."""
    return _suite_result(CheckId.MDL_RANDOM, count, seed)


def _run_sun(p: int, seed: int, plus: bool):
    n = (p - 1) // 2
    points = _sample_tuples(_rng(seed, "SUN_C31_I" if plus else "SUN_C31_II", p))
    # the symbol vector over 0..n, with (0/p) = 0.  Mod 2, [((j+k)/p)] is all
    # ones but for its 0 at (0, 0), so of rank 2; [((j-k)/p)] is J - I there,
    # of rank n or n + 1, and names no q
    m, f = at(p).matrix("sun_plus" if plus else "sun_minus"), [0, *symbol_vector(p)]
    pd, directs = param_det_expand(m, f, f, points, None, 2 if plus else None)
    samples = zip(points, directs)
    if p % 4 == 1:
        a, b, a2, b2 = unit_power_coeffs(p)
        two = legendre_table(p)[2]
        if plus:
            k = Fraction(two * 2**n)

            def rhs(x, y, z, w):
                return k * (p * b * x + a * (w * x - (y + 1) * (z + 1)))

        else:
            def rhs(x, y, z, w):
                return a2 * (w * x - (y + 1) * (z + 1)) + two * p * b2 * x

    else:
        if plus:
            k = 2**n

            def rhs(x, y, z, w):
                return k * ((y + 1) * (z + 1) - w * x)

        else:
            def rhs(x, y, z, w):
                return w * x + (1 + y) * (1 - z)

    wit = {"alpha": str(pd.alpha)}
    return _two_layer(wit, pd, samples, rhs, coeffs_match=_DEGREE_2)


def _run_mordell(p: int, seed: int):
    h = at(p).invariants.h_neg
    fact = factorial_half_mod(p)
    want = mordell_residue(p, h)
    ok = fact == want
    wit = {"h_neg": h, "factorial_mod_p": fact}
    if not ok:
        wit["note"] = f"((p-1)/2)! ≡ {fact}, expected {want} (mod {p})"
    return ok, wit


# ---------------------------------------------------------------------------
# registry, check, scan
# ---------------------------------------------------------------------------

_ANY = ("any odd prime", lambda p: True)
_1MOD4 = ("p ≡ 1 (mod 4)", lambda p: p % 4 == 1)
_3MOD4 = ("p ≡ 3 (mod 4)", lambda p: p % 4 == 3)
_3MOD4_GT3 = ("p ≡ 3 (mod 4) with p > 3", lambda p: p % 4 == 3 and p > 3)
_GT3 = ("p > 3", lambda p: p > 3)


@dataclass(frozen=True)
class _Spec:
    requirement: str
    applies: Callable[[int], bool]
    # (p, seed) -> (passed, witness); a seed-only suite: (count, seed) -> CheckResult
    runner: Callable[[int, int], tuple[bool, dict] | CheckResult]
    describes: str


_REGISTRY: dict[CheckId, _Spec] = {
    CheckId.T11_CHARPOLY_1MOD4: _Spec(
        *_1MOD4, _run_t11_charpoly,
        "charpoly(A+) = (x^2-1)(x^2-p)^((p-5)/4), charpoly(A-) = (x^2-p)^((p-1)/4)",
    ),
    CheckId.T11_DET_1MOD4: _Spec(
        *_1MOD4, _run_t11_det_1mod4,
        "|A+| = (2/p) p^((p-5)/4) and |A-| = (2/p) p^((p-1)/4)",
    ),
    CheckId.T11_DET_3MOD4: _Spec(
        *_3MOD4_GT3, _run_t11_det_3mod4,
        "|A+| = |A-| = (-1)^((h(-p)-1)/2) p^((p-3)/4)",
    ),
    CheckId.T12_I: _Spec(
        *_1MOD4, _run_t12_i,
        "4-parameter determinant = (-p)^((p-5)/4) (n^2 wx - (ny-1)(nz-1))",
    ),
    CheckId.T12_II: _Spec(
        *_3MOD4_GT3, _run_t12_ii,
        "4-parameter determinant closed form in c_p and d_p",
    ),
    CheckId.COR_AFTER_T12: _Spec(
        *_3MOD4_GT3, _run_cor_after_t12,
        "two-parameter restrictions (1 - c_p x - n y) and (1 - c_p w - n y)",
    ),
    CheckId.EQ_38II_QP: _Spec(
        *_3MOD4_GT3, _run_eq_38ii_qp,
        "z=0 restriction matches the q_p form, q_p = (2/p)(c_p^2-d_p^2+(d_p+n)^2)/16",
    ),
    CheckId.T13_DPMOD4: _Spec(*_ANY, _run_t13, "d_p ≡ -(p-1)/2 (mod 4)"),
    CheckId.CONJ11_DP: _Spec(
        *_GT3, _run_conj11,
        "conjectured congruence for d_p mod 16 (p ≡ 1 mod 4) / mod 8 (p ≡ 3 mod 4)",
    ),
    CheckId.L21_QUADSUM: _Spec(
        *_ANY, _run_l21,
        "sum ((x^2+bx+c)/p) over x = p-1 if p | b^2-4c else -1",
    ),
    CheckId.L22_GRAM: _Spec(
        *_ANY, _run_l22, "Gram identities for A+^T A+ and A-^T A-"
    ),
    CheckId.L23_EIGVECS: _Spec(
        *_1MOD4, _run_l23, "A+ v1 = v1 and A+ v2 = -v2 for the shifted symbol vectors"
    ),
    CheckId.L24_EIGSPACE: _Spec(
        *_1MOD4, _run_l24,
        "A+^2 fixes e_{s_i} - e_{s_0} differences up to the factor p (dim >= n-2)",
    ),
    CheckId.L25_AP_NEG: _Spec(*_3MOD4, _run_l25_ap_neg, "|A_p| < 0"),
    CheckId.L25_EIGS: _Spec(
        *_3MOD4, _run_l25_eigs,
        "character-sum eigenvalues: lambda_n = -1 and their product matches |A_p|",
    ),
    CheckId.ATHETA: _Spec(*_3MOD4, _run_atheta, "A+ theta = p * (1, ..., 1)^T"),
    CheckId.EQ_DP_U1AU0: _Spec(
        *_3MOD4, _run_eq_dp_u1au0,
        "p u1^T adj(A+) u0 = det(A+) (n + 2(d_p - c_p^2))",
    ),
    CheckId.L41_SUMS: _Spec(
        *_ANY, _run_l41,
        "sum_{j,k<=n} ((j+k)/p) = 2 sum k(k/p) or -sum (k/p) by residue class",
    ),
    CheckId.EQ_DCOUNT: _Spec(
        *_ANY, _run_eq_dcount,
        "d_p = 4N - n^2 - n S1 + (residue-class correction)",
    ),
    CheckId.T31_RANDOM: _Spec(
        "any input (seeded random instances)", lambda p: True, t31_random_suite,
        "four-parameter expansion on random integer matrices",
    ),
    CheckId.MDL_RANDOM: _Spec(
        "any input (seeded random instances)", lambda p: True, mdl_random_suite,
        "matrix-determinant lemma on random integer matrices",
    ),
    CheckId.SUN_C31_I: _Spec(
        *_GT3, lambda p, s: _run_sun(p, s, True),
        "(n+1)-square shifted matrix with ((j+k)/p): unit-coefficient closed form",
    ),
    CheckId.SUN_C31_II: _Spec(
        *_ANY, lambda p, s: _run_sun(p, s, False),
        "(n+1)-square shifted matrix with ((j-k)/p): unit-coefficient closed form",
    ),
    CheckId.MORDELL: _Spec(
        *_3MOD4_GT3, _run_mordell, "((p-1)/2)! ≡ (-1)^((h(-p)+1)/2) (mod p)"
    ),
}


def describe(check_id: CheckId) -> str:
    return _REGISTRY[check_id].describes


def requirement(check_id: CheckId) -> str:
    return _REGISTRY[check_id].requirement


def applicable(check_id: CheckId, p: int) -> bool:
    return _REGISTRY[check_id].applies(p)


def parse_ids(raw: str | Iterable[CheckId | str]) -> list[CheckId]:
    """Check ids, in the given order, from "all", a comma-separated string
    of names, or an iterable of CheckId values and names.  Raises ValueError
    on an unknown name."""
    if raw == "all":
        return list(CheckId)
    ids = []
    for item in raw.split(",") if isinstance(raw, str) else raw:
        name = item.name if isinstance(item, CheckId) else item.strip()
        if name not in CheckId.__members__:
            raise ValueError(f"unknown check id {name!r}")
        ids.append(CheckId[name])
    return ids


def require_range(p_from: int, p_to: int, ids: Iterable[CheckId] = ()) -> None:
    """Raises ValueError unless 3 <= p_from <= p_to < TABLE_P_LIMIT (no symbol
    table above it), and, when `ids` holds a check that builds matrices,
    unless p_to passes `require_matrix_prime`; before anything is sieved."""
    if not 3 <= p_from <= p_to:
        raise ValueError(f"need 3 <= from <= to, got [{p_from}, {p_to}]")
    if p_to >= TABLE_P_LIMIT:
        raise ValueError(f"need to < 2^31 for a symbol table, got to = {p_to}")
    big = sorted(cid.name for cid in MATRIX_IDS.intersection(ids))
    if big:
        require_matrix_prime(p_to, f"the matrices of {', '.join(big)}")


def check(check_id: CheckId | str, p: int | None = None, seed: int = 0) -> CheckResult:
    """Run one catalog check.  Raises ValueError when p is missing, not an
    odd prime, in the wrong residue class for the statement, or too large
    for the matrices the check builds (`require_matrix_prime`)."""
    [check_id] = parse_ids([check_id])
    spec = _REGISTRY[check_id]
    if check_id in RANDOM_IDS:
        return spec.runner(_DEFAULT_RANDOM_INSTANCES, seed)
    start = time.perf_counter()
    if p is None:
        raise ValueError(f"check {check_id.name} needs a prime")
    require_odd_prime(p)
    if not spec.applies(p):
        raise ValueError(f"check {check_id.name} requires {spec.requirement}, got p = {p}")
    if check_id in MATRIX_IDS:
        require_matrix_prime(p, f"the matrices of {check_id.name}")
    ok, wit = spec.runner(p, seed)
    return CheckResult(check_id, p, ok, wit, time.perf_counter() - start)


def exit_code_for(failed_ids: Iterable[CheckId | str]) -> int:
    """0 = all passed, 4 = only conjecture findings, 1 = a proved statement
    failed (implementation bug)."""
    names = {i if isinstance(i, str) else i.name for i in failed_ids}
    if not names:
        return 0
    if names <= {i.name for i in CONJECTURE_IDS}:
        return 4
    return 1


# ---------------------------------------------------------------------------
# range scanning
# ---------------------------------------------------------------------------


def json_safe(obj):
    """A witness as JSON values: ints beyond 2^53 and anything that is not a
    JSON scalar (Fractions, for one) become decimal strings."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < 2**53 else str(obj)
    return str(obj)


@dataclass
class ScanRecord:
    """Everything recorded for one prime: its invariants plus the outcome of
    every applicable requested check (skipped checks are simply absent)."""

    p: int
    invariants: PrimeInvariants
    checks: dict[str, dict]


#: (check name, passed) as a tally counts it; passed is None where skipped
Outcome = tuple[str, bool | None]


@dataclass
class ScanSummary:
    primes: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[tuple[int | None, str]] = field(default_factory=list)

    def add(self, p: int, outcomes: Iterable[Outcome]) -> None:
        """Count one prime and its checks' outcomes."""
        self.primes += 1
        for name, passed in outcomes:
            self.count(p, name, passed)

    def count(self, p: int | None, name: str, passed: bool | None) -> None:
        """Count one outcome; p is None for a seed-only suite."""
        if passed is None:
            self.skipped += 1
        elif passed:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append((p, name))


def checks_at(p: int, ids: Sequence[CheckId], seed: int) -> tuple[list[CheckResult], list[Outcome]]:
    """Run each of `ids` that applies to p, in order and with any repeats:
    (their results, and every id's outcome at p for the tally)."""
    found = [check(cid, p, seed) if applicable(cid, p) else None for cid in ids]
    return [r for r in found if r], [(cid.name, r.passed if r else None) for cid, r in zip(ids, found)]


def _scan_one(p: int, ids: tuple[CheckId, ...], seed: int) -> tuple[ScanRecord, list[Outcome]]:
    inv = at(p).invariants
    results, outcomes = checks_at(p, ids, seed)
    checks: dict[str, dict] = {}
    for res in results:
        if res.passed:
            note = res.witness.get("note")
            checks[res.id.name] = {"passed": True, "note": note} if note else {"passed": True}
        else:  # the full witness, so that a counterexample can be re-run
            checks[res.id.name] = {"passed": False, **json_safe(res.witness)}
    return ScanRecord(p, inv, checks), outcomes


def pool_size(jobs: int | None, cores: int, primes: int) -> int:
    """Worker processes for a scan: min(jobs, cores, primes), and 1 for an
    empty range; jobs=None asks for one per core."""
    if jobs is None:
        jobs = cores
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, cores, primes))


def run_range(p_from: int, p_to: int, work: Callable[[int], tuple[object, list[Outcome]]],
              sink: Callable[[object], None], *, jobs: int | None = 1, skip: set[int] | None = None) -> ScanSummary:
    """The one prime-range loop, under `scan` and `legdet verify`.  work(p)
    returns (p's record, its checks' outcomes) for each prime in [p_from,
    p_to] not in `skip`, in `pool_size` processes (work must then pickle);
    each record goes to `sink` in ascending order of p as soon as it and every
    smaller prime are done, and the outcomes are tallied in the returned
    summary.  Nothing is kept per prime."""
    require_range(p_from, p_to)
    ps = primes_in_range(p_from, p_to)
    if skip:
        ps = [q for q in ps if q not in skip]
    workers = pool_size(jobs, os.cpu_count() or 1, len(ps))
    summary = ScanSummary()

    def deliver(done: Iterable[tuple[object, list[Outcome]]]) -> None:
        for p, (rec, outcomes) in zip(ps, done):
            summary.add(p, outcomes)
            sink(rec)

    if workers > 1:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        chunk = max(1, len(ps) // (workers * 8))
        with ctx.Pool(workers) as pool:
            deliver(pool.imap(work, ps, chunksize=chunk))
    else:
        deliver(map(work, ps))
    return summary


def scan(ids: Iterable[CheckId | str], p_from: int, p_to: int, sink: Callable[[ScanRecord], None], *,
         seed: int = 0, jobs: int | None = 1, skip: set[int] | None = None) -> ScanSummary:
    """Run the requested checks, sorted by name and each once, over every
    prime in [p_from, p_to] (`run_range`).  Records are delivered to `sink`
    in ascending order of p, one per prime, regardless of `jobs`; a record
    lists only the checks applicable to its prime.  Primes in `skip` (already
    present in a resumed output) are not recomputed.  Because delivery is
    ordered and incremental, an aborted scan leaves a valid prefix that a
    later resume can extend."""
    ids = tuple(sorted(set(parse_ids(ids)), key=lambda cid: cid.name))
    require_range(p_from, p_to, ids)
    return run_range(p_from, p_to, partial(_scan_one, ids=ids, seed=seed), sink, jobs=jobs, skip=skip)
