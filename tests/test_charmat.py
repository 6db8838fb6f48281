import random

import numpy as np
import pytest

import oracles
from legdet.charmat import (
    at,
    build,
    special_eigvecs,
    symbol_vector,
    theta_vector,
)
from legdet.exactla import _shifted_samples, det
from legdet.ntheory import legendre_table, primes_in_range


def test_aplus_aminus_frozen_p5():
    assert build("aplus", 5).tolist() == [[-1, 0], [0, 1]]
    assert build("aminus", 5).tolist() == [[-1, -2], [-2, 1]]


@pytest.mark.parametrize("p", primes_in_range(3, 199) + [397, 419])
def test_build_matches_the_entry_by_entry_oracle(p):
    for name in ("aplus", "aminus", "ap", "sun_plus", "sun_minus"):
        m = build(name, p)
        assert m.dtype == np.int64 and not m.flags.writeable
        assert m.tolist() == oracles.build_by_rows(name, p), name


def test_build_equals_the_index_array_gather_to_2000():
    # the Hankel and Toeplitz windows against the n x n index-array gather
    # they replaced, for every name at every odd prime below 2,000
    for p in primes_in_range(3, 2000):
        vals = [oracles.euler_legendre(a, p) for a in range(p)]
        for name in ("aplus", "aminus", "ap", "sun_plus", "sun_minus"):
            m = build(name, p)
            assert m.dtype == np.int64 and m.flags.c_contiguous and m.flags.owndata
            assert np.array_equal(m, oracles.build_by_gather(name, p, vals)), (name, p)


def test_build_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown matrix 'bplus'"):
        build("bplus", 7)


def test_record_matrices_are_read_only(fresh_caches):
    p = 101
    m = at(p).matrix("aplus")
    with pytest.raises(ValueError):
        m[0, 0] = 7
    assert at(p).dets("aplus") == [det(build("aplus", p))]


def shifted(base, f, point):
    """base shifted by f at one point, by the broadcast the catalog samples with."""
    [sample] = _shifted_samples(base, f, f, [point])
    return sample.tolist()


def test_axyzw_zero_params_equals_aplus():
    for p in primes_in_range(3, 50):
        aplus = build("aplus", p)
        assert shifted(aplus, symbol_vector(p), (0, 0, 0, 0)) == aplus.tolist()


def test_axyzw_entry_formula():
    p = 11
    t = legendre_table(p)
    m = shifted(build("aplus", p), symbol_vector(p), (2, 3, -1, 5))
    for j in range(1, 6):
        for k in range(1, 6):
            want = 2 + t[j + k] + t[(j - k) % p] + 3 * t[j] - t[k] + 5 * t[j * k % p]
            assert m[j - 1][k - 1] == want


@pytest.mark.parametrize("p", primes_in_range(3, 200))
def test_symmetry_by_residue_class(p):
    ap = build("aplus", p)
    am = build("aminus", p)
    if p % 4 == 1:
        assert np.array_equal(ap.T, ap)
        assert np.array_equal(am.T, am)
    else:
        assert np.array_equal(ap.T, am)


@pytest.mark.parametrize("p", primes_in_range(3, 100))
def test_entry_bounds_and_diagonal(p):
    t = legendre_table(p)
    for name in ("aplus", "aminus"):
        m = build(name, p)
        assert all(e in (-2, -1, 0, 1, 2) for row in m.tolist() for e in row)
    ap = build("aplus", p)
    for j in range(1, (p - 1) // 2 + 1):
        assert ap[j - 1, j - 1] == t[2 * j % p]


def test_ap_matrix_p7():
    # entries ((j^2+jk)/p) + ((j^2-jk)/p) = (j/p) * aplus entry, row-wise
    p = 7
    t = legendre_table(p)
    ap = build("ap", p)
    plus = build("aplus", p)
    for j in range(1, 4):
        for k in range(1, 4):
            assert ap[j - 1, k - 1] == t[j] * plus[j - 1, k - 1]


def test_sun_half_shapes_and_row0():
    p = 13
    n = (p - 1) // 2
    t = legendre_table(p)
    m = shifted(build("sun_plus", p), list(t[: n + 1]), (4, 1, 2, 3))
    assert len(m) == len(m[0]) == n + 1
    # in row 0 the (j/p) y and (jk/p) w terms vanish since (0/p) = 0
    for k in range(n + 1):
        assert m[0][k] == 4 + t[k] + 2 * t[k]
    mm = build("sun_minus", p)
    for j in range(n + 1):
        for k in range(n + 1):
            assert mm[j, k] == t[(j - k) % p]


def test_theta_vector_product():
    for p in (3, 7, 11, 19, 23):
        th = theta_vector(p)
        assert all(isinstance(c, int) for c in th)
        got = (build("aplus", p) @ th).tolist()
        assert got == [p] * ((p - 1) // 2)


def test_theta_vector_matches_the_double_loop():
    # the prefix-sum windows against the O(n^2) loop they replaced, at every
    # p ≡ 3 (mod 4) below 400 and at four near 2,000
    for p in [*primes_in_range(3, 400), 1999, 2003, 2011, 2027]:
        if p % 4 == 3:
            assert theta_vector(p) == oracles.theta_vector_by_loop(p), p


def test_theta_vector_rejects_1mod4():
    with pytest.raises(ValueError):
        theta_vector(13)


def test_special_eigvecs_frozen_p5():
    v1, v2 = special_eigvecs(5)
    assert v1 == [0, -2]
    assert v2 == [2, 0]


def test_special_eigvec_relations_p13():
    v1, v2 = special_eigvecs(13)
    ap = build("aplus", 13)
    assert (ap @ v1).tolist() == v1
    assert (ap @ v2).tolist() == [-t for t in v2]


def test_special_eigvecs_rejects_3mod4():
    with pytest.raises(ValueError):
        special_eigvecs(7)


def test_symbol_vector():
    assert symbol_vector(5) == [1, -1]
    assert symbol_vector(7) == [1, 1, -1]


def test_matrix_kind_validation():
    # the old tags and the four-parameter matrix are not names build takes
    for name in ("NoSuch", "APlus", "axyzw"):
        with pytest.raises(ValueError):
            build(name, 13)
    with pytest.raises(ValueError):
        build("aplus", 9)


def test_parametric_kinds_are_shifted_base_matrices():
    # the catalog takes the sample determinants of A+ and the Sun matrices
    # shifted by the symbol vector from the broadcast of the base matrix, so
    # the broadcast and the entry-by-entry oracle must agree
    rng = random.Random(59)
    for p in primes_in_range(3, 59):
        t = legendre_table(p)
        n = (p - 1) // 2
        u1 = symbol_vector(p)
        fg = list(t[: n + 1])
        aplus = build("aplus", p)
        for _ in range(5):
            pt = tuple(rng.randint(-9, 9) for _ in range(4))
            assert shifted(aplus, u1, pt) == oracles.shifted_rows(aplus.tolist(), u1, u1, *pt)
            for name in ("sun_plus", "sun_minus"):
                base = build(name, p)
                assert shifted(base, fg, pt) == oracles.shifted_rows(base.tolist(), fg, fg, *pt)
