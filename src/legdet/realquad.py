"""Real quadratic field data for primes p ≡ 1 (mod 4): the fundamental unit
of Q(sqrt(p)), the class number, and the coefficients of the unit powers that
appear in the half-range determinant closed forms.

Everything is integer arithmetic: the continued fraction of sqrt(p) runs
through the classic (P, Q) recurrence, and the class number counts reduction
cycles of indefinite binary quadratic forms of discriminant p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError
from .ntheory import is_prime


def _require_1mod4_prime(p: int) -> None:
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"a prime p ≡ 1 (mod 4) is required, got {p}")


@dataclass(frozen=True)
class QuadElem:
    """(u + v*sqrt(p)) / 2 with u ≡ v (mod 2), an element of the ring of
    integers of Q(sqrt(p)).  Storing doubled coordinates keeps half-integers
    exact without general rationals."""

    p: int
    u: int
    v: int

    def __post_init__(self):
        if (self.u - self.v) % 2 != 0:
            raise ValueError("coordinates must have equal parity")

    @property
    def a(self) -> Fraction:
        return Fraction(self.u, 2)

    @property
    def b(self) -> Fraction:
        return Fraction(self.v, 2)

    def norm(self) -> int:
        num = self.u * self.u - self.p * self.v * self.v
        if num % 4 != 0:
            raise InternalError("norm is not an integer")
        return num // 4

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        if self.p != other.p:
            raise ValueError("elements live in different fields")
        uu = self.u * other.u + self.p * self.v * other.v
        vv = self.u * other.v + self.v * other.u
        if uu % 2 or vv % 2:
            raise InternalError("product left the ring of integers")
        return QuadElem(self.p, uu // 2, vv // 2)

    def __pow__(self, e: int) -> "QuadElem":
        if e < 0:
            raise ValueError("negative exponent")
        out = QuadElem(self.p, 2, 0)  # 1
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __str__(self) -> str:
        return f"({self.u}+{self.v}√{self.p})/2"


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


def fundamental_unit(p: int) -> QuadElem:
    """Fundamental unit eps > 1 of Q(sqrt(p)) for a prime p ≡ 1 (mod 4).

    The continued fraction of sqrt(p) certifies the minimal integral unit
    x1 + y1*sqrt(p).  The fundamental unit is either that or a half-integral
    (a + b*sqrt(p))/2 with a, b odd and a^2 - p b^2 = ±4 whose cube is the
    integral unit; the bounded search over b below is exhaustive because
    2*y1 = b*(3a^2 + p b^2)/4 forces p*b^3 - 3b <= 2*y1.  For p ≡ 1 (mod 8)
    there is nothing to search: a, b odd give a^2 - p b^2 ≡ 1 - p ≡ 0 (mod 8),
    never ±4.
    """
    _require_1mod4_prime(p)
    x1, y1 = _pell_unit(p)
    b = 1
    while p % 8 == 5 and p * b**3 - 3 * b <= 2 * y1:
        for delta in (-4, 4):  # norm -1 candidates first: smaller element
            aa = p * b * b + delta
            a = math.isqrt(aa)
            if a * a == aa and a % 2 == 1:
                eps = QuadElem(p, a, b)
                if eps**3 != QuadElem(p, 2 * x1, 2 * y1):
                    raise InternalError(f"half-integral unit at p={p} fails the cube test")
                if eps.norm() != -1:
                    raise InternalError(f"fundamental unit of Q(sqrt({p})) has norm +1")
                return eps
        b += 2
    eps = QuadElem(p, 2 * x1, 2 * y1)
    if eps.norm() != -1:
        raise InternalError(f"fundamental unit of Q(sqrt({p})) has norm +1")
    return eps


# ---------------------------------------------------------------------------
# class number by cycles of reduced indefinite forms
# ---------------------------------------------------------------------------


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


def class_number_real(p: int) -> int:
    """Class number h_p of Q(sqrt(p)) for a prime p ≡ 1 (mod 4), as the
    number of rho-cycles of reduced indefinite forms of discriminant p.
    The fundamental unit has norm -1 for such p, so the narrow (cycle) count
    equals the ideal class number."""
    _require_1mod4_prime(p)
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


def unit_power_coeffs(p: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(a, b, a', b') with eps^h = a + b*sqrt(p) and
    eps^((2-(2/p)) h) = a' + b'*sqrt(p), h the class number of Q(sqrt(p)).

    Exact exponentiation by squaring; checks a^2 - p b^2 = (-1)^h on the way
    out."""
    _require_1mod4_prime(p)
    eps = fundamental_unit(p)
    h = class_number_real(p)
    first = eps**h
    if first.norm() != (-1) ** h:
        raise InternalError(f"norm of eps^h is not (-1)^h at p={p}")
    two_symbol = 1 if pow(2, (p - 1) // 2, p) == 1 else -1
    second = eps ** ((2 - two_symbol) * h)
    return first.a, first.b, second.a, second.b
