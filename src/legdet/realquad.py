"""Real quadratic field data for primes p ≡ 1 (mod 4): the fundamental unit
of Q(sqrt(p)), the class number, and the coefficients of the unit powers that
appear in the half-range determinant closed forms.

Everything is integer arithmetic on one continued-fraction step of the
reduced irrationals (P + sqrt(p))/Q: one period from (b + sqrt(p))/2 gives
the fundamental unit, and the number of cycles of the step on all reduced
states gives the class number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError
from .ntheory import legendre, require_odd_prime


def require_1mod4_prime(p: int) -> None:
    """ValueError unless p is a prime ≡ 1 (mod 4); primality is proved once
    per p, by `require_odd_prime`'s cache."""
    if p % 4 == 1:
        try:
            return require_odd_prime(p)
        except ValueError:
            pass
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


def _cf_step(p: int, s: int, P: int, Q: int) -> tuple[int, int, int]:
    """One continued-fraction step of (P + sqrt(p))/Q, Q > 0 and Q | p - P^2,
    with s = isqrt(p): the partial quotient a and the next state (P', Q')."""
    a = (P + s) // Q
    P = a * Q - P
    return a, P, (p - P * P) // Q


def fundamental_unit(p: int) -> QuadElem:
    """Fundamental unit eps > 1 of Q(sqrt(p)) for a prime p ≡ 1 (mod 4).

    With b the largest odd integer below sqrt(p), w = (b + sqrt(p))/2 is
    reduced, so its continued fraction is purely periodic and the state
    (P, Q) = (b, 2) returns after one period of length L.  The convergent
    denominators k_i, seeded (k_-2, k_-1) = (1, 0), then give the unit of
    the ring of integers Z[w], integral or half-integral alike:
    eps = k_{L-1} w + k_{L-2}, of norm (-1)^L, which must be -1.
    """
    require_1mod4_prime(p)
    s = math.isqrt(p)
    b = s - 1 + s % 2
    P, Q = b, 2
    k_pp, k = 1, 0
    while True:
        a, P, Q = _cf_step(p, s, P, Q)
        k_pp, k = k, a * k + k_pp
        if (P, Q) == (b, 2):
            break
    eps = QuadElem(p, k * b + 2 * k_pp, k)
    if eps.norm() != -1:
        raise InternalError(f"fundamental unit of Q(sqrt({p})) has norm +1")
    return eps


def _reduced(p: int) -> set[tuple[int, int]]:
    """The reduced states (P, Q) of discriminant p: P odd, 0 < P < sqrt(p),
    sqrt(p) - P < Q < sqrt(p) + P, Q even and 2Q | p - P^2.  Each is the
    root (P + sqrt(p))/Q of the reduced forms (±Q/2, P, (P^2 - p)/(±2Q))."""
    s = math.isqrt(p)
    return {
        (P, Q)
        for P in range(1, s + 1, 2)
        for Q in range(s + 1 - P + (s + 1 - P) % 2, s + P + 1, 2)
        if (p - P * P) % (2 * Q) == 0
    }


def class_number_real(p: int) -> int:
    """Class number h_p of Q(sqrt(p)) for a prime p ≡ 1 (mod 4), as the
    number of cycles of the continued-fraction step on the reduced states.
    The fundamental unit has norm -1 for such p, so each cycle holds both
    forms (±Q/2, P, c) of each of its states and is one ideal class."""
    require_1mod4_prime(p)
    s = math.isqrt(p)
    reduced = _reduced(p)
    seen: set[tuple[int, int]] = set()
    cycles = 0
    for start in reduced:
        if start in seen:
            continue
        cycles += 1
        P, Q = start
        while (P, Q) not in seen:
            seen.add((P, Q))
            _, P, Q = _cf_step(p, s, P, Q)
            if (P, Q) not in reduced:
                raise InternalError(f"the step left the reduced set at {(P, Q)} (p={p})")
    return cycles


def unit_power_coeffs(p: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(a, b, a', b') with eps^h = a + b*sqrt(p) and
    eps^((2-(2/p)) h) = a' + b'*sqrt(p), h the class number of Q(sqrt(p)).

    Exact exponentiation by squaring; checks a^2 - p b^2 = (-1)^h on the way
    out."""
    require_1mod4_prime(p)
    eps = fundamental_unit(p)
    h = class_number_real(p)
    first = eps**h
    if first.norm() != (-1) ** h:
        raise InternalError(f"norm of eps^h is not (-1)^h at p={p}")
    second = eps ** ((2 - legendre(2, p)) * h)
    return first.a, first.b, second.a, second.b
