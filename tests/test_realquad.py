import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import legdet.realquad as realquad
import oracles
from legdet.errors import InternalError
from legdet.ntheory import legendre, primes_in_range
from legdet.realquad import QuadElem, class_number_real, fundamental_unit, unit_power_coeffs
from oracles import QuadForm, reduced_forms, sqrt_cf

P1MOD4 = [p for p in primes_in_range(5, 200) if p % 4 == 1]


def test_fundamental_unit_frozen_examples():
    assert fundamental_unit(5) == QuadElem(5, 1, 1)      # (1+sqrt5)/2
    assert fundamental_unit(13) == QuadElem(13, 3, 1)    # (3+sqrt13)/2
    assert fundamental_unit(17) == QuadElem(17, 8, 2)    # 4+sqrt17


# (h, u, v) with fundamental unit (u + v sqrt(p))/2 at primes of class
# numbers 3 to 43, as the continued fraction of sqrt(p), the cube-root test
# and the rho-cycles of reduced forms gave them
H_ABOVE_1 = {
    229: (3, 15, 1),
    257: (3, 32, 2),
    401: (5, 40, 2),
    577: (7, 48, 2),
    1093: (5, 33, 1),
    1129: (9, 336, 10),
    1297: (11, 72, 2),
    7057: (21, 168, 2),
    8761: (27, 936, 10),
    14401: (43, 240, 2),
}


@pytest.mark.parametrize("p", sorted(H_ABOVE_1))
def test_class_number_above_1_frozen_examples(p):
    h, u, v = H_ABOVE_1[p]
    assert class_number_real(p) == h
    assert fundamental_unit(p) == QuadElem(p, u, v)


def test_one_cf_step_agrees_with_the_old_route_below_10_000():
    # the continued fraction of sqrt(p) with the cube-root fork for the
    # unit, and the rho-cycles of reduced forms for h
    for p in primes_in_range(5, 10_000):
        if p % 4 != 1:
            continue
        eps = oracles.fundamental_unit_by_sqrt_cf(p)
        h = oracles.class_number_by_forms(p)
        assert fundamental_unit(p) == eps, p
        assert class_number_real(p) == h, p
        first, second = eps**h, eps ** ((2 - legendre(2, p)) * h)
        assert unit_power_coeffs(p) == (first.a, first.b, second.a, second.b), p


def test_class_number_raises_when_the_step_leaves_the_reduced_set(monkeypatch):
    # the principal cycle at p = 17 is (3, 2) -> (3, 4) -> (1, 4)
    reduced = realquad._reduced
    monkeypatch.setattr(realquad, "_reduced", lambda p: reduced(p) - {(3, 4)})
    with pytest.raises(InternalError, match=r"left the reduced set at \(3, 4\) \(p=17\)"):
        class_number_real(17)


def test_fundamental_unit_norm_and_minimality():
    for p in P1MOD4:
        eps = fundamental_unit(p)
        assert eps.norm() == -1
        assert eps.v >= 1 and eps.u >= 1
        # bounded search: no smaller (x, y) solves x^2 - p y^2 = ±4
        assert oracles.pell_minimal_pm4(p) == (eps.u, eps.v)


def test_fundamental_unit_skips_the_search_for_1mod8_below_2000():
    """For p ≡ 1 (mod 8) the unit is integral; it must be what the old
    half-integral search finds.  The search runs to its bound except at the
    9 primes where that takes over 5 * 10^4 steps (10^8 at p = 1801); the
    trace oracle covers all 68."""
    searched = 0
    for p in primes_in_range(17, 2000):
        if p % 8 != 1:
            continue
        _, x1, y1, _ = sqrt_cf(p)
        assert oracles.half_integral_unit_by_trace(p, x1) is None
        try:
            assert oracles.half_integral_unit_search(p, y1, cap=50_000) is None
            searched += 1
        except OverflowError:
            pass
        assert fundamental_unit(p) == QuadElem(p, 2 * x1, 2 * y1)
    assert searched == 59


def test_half_integral_unit_oracles_agree_for_5mod8():
    # the old odd-b search, with the integral unit where it finds nothing,
    # against the trace route and against fundamental_unit
    for p in primes_in_range(5, 1000):
        if p % 8 == 5:
            _, x1, y1, _ = sqrt_cf(p)
            found = oracles.half_integral_unit_search(p, y1, cap=10**6)
            assert oracles.half_integral_unit_by_trace(p, x1) == found
            want = QuadElem(p, *found) if found else QuadElem(p, 2 * x1, 2 * y1)
            assert fundamental_unit(p) == want


def test_fundamental_unit_at_1381_is_fast_and_cubes_to_the_pell_unit():
    # the odd-b search ran past 30 s here: its b reaches about (2*y1/p)^(1/3)
    start = time.perf_counter()
    eps = fundamental_unit(1381)
    assert time.perf_counter() - start < 0.5
    _, x1, y1, _ = sqrt_cf(1381)
    assert eps.v % 2 == 1 and eps.norm() == -1
    assert eps**3 == QuadElem(1381, 2 * x1, 2 * y1)


def test_sqrt_cf_odd_period_for_1mod4():
    for p in P1MOD4:
        period, x, y, norm = sqrt_cf(p)
        assert period % 2 == 1
        assert norm == -1
        assert x * x - p * y * y == -1


def test_fundamental_unit_rejects_3mod4():
    for bad in (7, 11, 9, 2):
        with pytest.raises(ValueError):
            fundamental_unit(bad)


@pytest.mark.parametrize("bad", [9, 21, 45, 7, 103, 2])
def test_realquad_names_the_class_for_composites_and_wrong_classes(bad):
    for entry in (fundamental_unit, class_number_real, unit_power_coeffs):
        with pytest.raises(ValueError, match=rf"^a prime p ≡ 1 \(mod 4\) is required, got {bad}$"):
            entry(bad)


def test_quadelem_parity_invariant():
    with pytest.raises(ValueError):
        QuadElem(5, 1, 2)


def test_quadelem_pow():
    eps = QuadElem(5, 1, 1)
    assert eps**3 == QuadElem(5, 4, 2)  # ((1+sqrt5)/2)^3 = 2+sqrt5
    assert eps**0 == QuadElem(5, 2, 0)


quad_coords = st.tuples(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.booleans(),
)


@given(quad_coords, quad_coords)
@settings(max_examples=1000)
def test_quadelem_norm_multiplicative(cu, cv):
    a = QuadElem(13, 2 * cu[0] + cu[2], 2 * cu[1] + cu[2])
    b = QuadElem(13, 2 * cv[0] + cv[2], 2 * cv[1] + cv[2])
    assert (a * b).norm() == a.norm() * b.norm()


def test_quadelem_mixed_fields_rejected():
    with pytest.raises(ValueError):
        QuadElem(5, 1, 1) * QuadElem(13, 1, 1)


def test_quadform_discriminant_and_reduction():
    f = QuadForm(1, 1, -1)
    assert f.discriminant == 5
    assert f.is_reduced()
    assert not QuadForm(1, 3, 1).is_reduced()  # b exceeds sqrt(5)
    assert f.rho() == QuadForm(-1, 1, 1)
    assert f.rho().rho() == f  # the single cycle for discriminant 5


def test_reduced_forms_closed_under_rho():
    for p in (5, 13, 29, 229):
        forms = reduced_forms(p)
        assert forms, p
        for f in forms:
            assert f.discriminant == p and f.is_reduced()
            assert f.rho() in forms


def test_class_number_one_below_229():
    for p in P1MOD4:
        assert class_number_real(p) == 1


def test_class_number_229_is_3():
    assert class_number_real(229) == 3


def test_class_number_rejects_3mod4():
    with pytest.raises(ValueError):
        class_number_real(7)


def test_unit_power_coeffs_examples():
    a, b, a2, b2 = unit_power_coeffs(5)
    assert (a, b) == (Fraction(1, 2), Fraction(1, 2))
    # (2/5) = -1, so the second exponent is 3 h and eps^3 = 2 + sqrt5
    assert (a2, b2) == (2, 1)
    a, b, a2, b2 = unit_power_coeffs(17)
    assert (a, b) == (4, 1)
    # (2/17) = 1, both exponents are h = 1
    assert (a2, b2) == (4, 1)


def test_unit_power_norm_consistency():
    for p in P1MOD4:
        a, b, _, _ = unit_power_coeffs(p)
        h = class_number_real(p)
        assert a * a - p * b * b == (-1) ** h
