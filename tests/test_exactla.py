import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from legdet.exactla import (
    IntMatrix,
    IntPoly,
    adjugate_apply,
    charpoly,
    crt_symmetric,
    det,
    det_bareiss,
    mdl_check,
    moduli,
    param_det_expand,
    shifted_matrix,
    _det_crt,
    _det_mod_np,
    _det_mod_py,
    _use_numpy,
)
from legdet.charmat import MatrixKind, build


def rand_square(rng, n, lo=-99, hi=99):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


# --- determinants -----------------------------------------------------------


def test_det_examples():
    assert det(IntMatrix([[-1, 0], [0, 1]])) == -1
    assert det(IntMatrix([[-1, -2], [-2, 1]])) == -5
    assert det(IntMatrix.identity(4)) == 1


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-99, max_value=99), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_det_paths_agree_with_cofactor_oracle(rows):
    m = IntMatrix(rows)
    want = oracles.det_cofactor([list(r) for r in rows])
    assert det_bareiss(m) == want
    assert _det_crt(m) == want


def test_bareiss_and_crt_agree_on_1000_seeded_matrices():
    rng = random.Random(42)
    for _ in range(1000):
        m = rand_square(rng, rng.randint(1, 8))
        assert det_bareiss(m) == _det_crt(m)


def test_det_crt_path_on_larger_matrix():
    rng = random.Random(7)
    m = rand_square(rng, 12)  # n > 8 dispatches to the CRT path
    assert det(m) == det_bareiss(m)


def test_det_crt_path_with_huge_entries():
    # entries beyond int64 must route to the big-int kernels
    rng = random.Random(8)
    scale = 10**40
    m = IntMatrix(
        [[rng.randint(-9, 9) * scale for _ in range(10)] for _ in range(10)]
    )
    assert det(m) == det_bareiss(m)
    w, d = adjugate_apply(m, [1] * 10)
    assert d == det(m)
    assert m.matvec(w) == [d] * 10
    f = charpoly(m)
    assert f.coeffs[0] == det(m) and f.coeffs[-1] == 1


def test_det_gram_square_identity():
    rng = random.Random(5)
    for _ in range(50):
        m = rand_square(rng, rng.randint(1, 6), -9, 9)
        assert det(m.transpose() @ m) == det(m) ** 2


def test_det_zero_row():
    assert det(IntMatrix([[0, 0], [1, 1]])) == 0


# --- moduli and CRT ---------------------------------------------------------


def test_moduli_distinct_descending_primes():
    ms = moduli(27)
    assert len(ms) == len(set(ms))
    assert list(ms) == sorted(ms, reverse=True)
    assert all(m < 2**27 for m in ms)
    for m in ms[:5]:
        assert oracles.trial_division_is_prime(m)


@given(st.integers(min_value=-(10**40), max_value=10**40))
@settings(max_examples=100)
def test_crt_roundtrip(x):
    ms = []
    prod = 1
    for m in moduli(27):
        ms.append(m)
        prod *= m
        if prod > 2 * abs(x):
            break
    assert crt_symmetric([x % m for m in ms], ms) == x


def test_moduli_bits_env_override(monkeypatch):
    rng = random.Random(11)
    m = rand_square(rng, 10)
    base = det(m)
    for bits in ("24", "31", "45", "62"):  # > 30 exercises the big-int kernels
        monkeypatch.setenv("LEGDET_MODULI_BITS", bits)
        assert det(m) == base
        assert charpoly(m) == charpoly_ref(m, bits)
    monkeypatch.setenv("LEGDET_MODULI_BITS", "7")
    with pytest.raises(ValueError):
        det(m)
    monkeypatch.setenv("LEGDET_MODULI_BITS", "word")
    with pytest.raises(ValueError):
        det(m)


def test_int64_bound_per_kernel():
    # det elimination sums no products; charpoly and solve sum n of them
    assert _use_numpy(31, 1, 1) and not _use_numpy(32, 1, 1)
    assert _use_numpy(27, 512, 1) and not _use_numpy(27, 513, 1)
    assert _use_numpy(28, 50, 1) and not _use_numpy(29, 50, 1)
    assert not _use_numpy(27, 1, 2**62)


@pytest.mark.parametrize("bits", ["28", "29", "30"])
def test_charpoly_aplus_closed_form_under_wide_moduli(monkeypatch, bits):
    # at n = 50, n * m^2 passes 2^63 from 29 bits on
    p = 101
    monkeypatch.setenv("LEGDET_MODULI_BITS", bits)
    want = IntPoly((-1, 0, 1)) * IntPoly((-p, 0, 1)) ** ((p - 5) // 4)
    assert charpoly(build(MatrixKind.aplus(), p)) == want


def test_det_kernels_agree_above_256():
    rng = random.Random(260)
    rows = [[rng.randint(-1, 1) for _ in range(260)] for _ in range(260)]
    m = moduli(27)[0]
    assert _det_mod_np(rows, m) == _det_mod_py(rows, m)


def charpoly_ref(m, _bits):
    # same call; the env var steers the kernel choice inside
    return charpoly(m)


# --- characteristic polynomials ---------------------------------------------


def test_charpoly_examples():
    assert charpoly(IntMatrix([[-1, 0], [0, 1]])) == IntPoly((-1, 0, 1))
    assert charpoly(IntMatrix([[-1, -2], [-2, 1]])) == IntPoly((-5, 0, 1))
    assert charpoly(IntMatrix([[0] * 3 for _ in range(3)])) == IntPoly((0, 0, 0, 1))


def test_charpoly_invariants_on_200_random_matrices():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 7)
        m = rand_square(rng, n, -20, 20)
        f = charpoly(m)
        assert f.degree == n
        assert f.coeffs[-1] == 1
        assert f.coeffs[0] == (-1) ** n * det(m)
        trace = sum(m.rows[i][i] for i in range(n))
        assert f.coeffs[n - 1] == -trace
        for x in range(4):
            xi_minus_m = IntMatrix(
                [
                    [(x if i == j else 0) - m.rows[i][j] for j in range(n)]
                    for i in range(n)
                ]
            )
            assert f(x) == det(xi_minus_m)


def test_charpoly_rejects_nonsquare():
    with pytest.raises(ValueError):
        charpoly(IntMatrix([[1, 2]]))


# --- adjugate solve ----------------------------------------------------------


def test_adjugate_apply_matches_rational_inverse():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 7)
        m = rand_square(rng, n, -9, 9)
        d = det(m)
        if d == 0:
            continue
        v = [rng.randint(-9, 9) for _ in range(n)]
        w, d2 = adjugate_apply(m, v)
        assert d2 == d
        # m @ w must equal det * v, i.e. w = det * m^{-1} v
        assert m.matvec(w) == [d * t for t in v]


def test_adjugate_apply_rejects_singular():
    with pytest.raises(ValueError):
        adjugate_apply(IntMatrix([[1, 1], [1, 1]]), [1, 1])


# --- matrix-determinant lemma -------------------------------------------------


def test_mdl_trivial_examples():
    i2 = IntMatrix.identity(2)
    zero = IntMatrix([[0], [0]])
    assert mdl_check(i2, zero, zero)
    e1 = IntMatrix([[1], [0]])
    assert mdl_check(i2, e1, e1)


def test_mdl_rejects_singular():
    with pytest.raises(ValueError):
        mdl_check(IntMatrix([[1, 1], [1, 1]]), IntMatrix([[1], [0]]), IntMatrix([[1], [0]]))


def test_mdl_random_instances():
    rng = random.Random(23)
    done = 0
    while done < 100:
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        a = rand_square(rng, n, -9, 9)
        if det(a) == 0:
            continue
        u = IntMatrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
        v = IntMatrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
        assert mdl_check(a, u, v)
        done += 1


# --- parameterized determinant expansion --------------------------------------


def test_param_det_identity_example():
    pd = param_det_expand(IntMatrix.identity(2), [0, 0], [0, 0])
    assert (pd.alpha, pd.alpha1, pd.alpha2, pd.alpha3, pd.alpha4) == (1, 3, 1, 1, 1)
    assert pd.evaluate(0, 0, 0, 0) == pd.alpha
    assert pd.evaluate(1, 0, 0, 0) == pd.alpha1
    assert pd.evaluate(0, 1, 0, 0) == pd.alpha2
    assert pd.evaluate(0, 0, 1, 0) == pd.alpha3
    assert pd.evaluate(0, 0, 0, 1) == pd.alpha4


def test_param_det_rejects_singular():
    with pytest.raises(ValueError):
        param_det_expand(IntMatrix([[1, 1], [1, 1]]), [0, 0], [0, 0])


def test_param_det_random_postcondition():
    # the expansion self-validates at 20 sample points; a mismatch would raise
    rng = random.Random(31)
    done = 0
    while done < 200:
        n = rng.randint(1, 6)
        a = rand_square(rng, n, -9, 9)
        if det(a) == 0:
            continue
        f = [rng.randint(-9, 9) for _ in range(n)]
        g = [rng.randint(-9, 9) for _ in range(n)]
        pd = param_det_expand(a, f, g, seed=done)
        assert pd.evaluate(0, 0, 0, 0) == pd.alpha
        done += 1


def test_shifted_matrix_entries():
    a = IntMatrix([[1, 2], [3, 4]])
    s = shifted_matrix(a, [1, -1], [2, 0], 1, 1, 1, 1)
    # entry (i, j) = a(i, j) + x + f(i) y + g(j) z + f(i) g(j) w
    assert s.rows[0][0] == 1 + 1 + 1 + 2 + 2
    assert s.rows[1][1] == 4 + 1 - 1 + 0 + 0


# --- IntMatrix / IntPoly basics -----------------------------------------------


def test_intmatrix_validation_and_ops():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.transpose().rows == ((1, 3), (2, 4))
    assert m[1, 0] == 3
    assert m.matvec([1, 1]) == [3, 7]
    assert (m @ IntMatrix.identity(2)) == m


def test_intmatrix_matmul_big_entries_fall_back_exactly():
    big = 10**40
    m = IntMatrix([[big, 0], [0, 1]])
    prod = m @ m
    assert prod.rows[0][0] == big * big
    assert prod.rows[1][1] == 1


def test_intpoly_ops_and_str():
    x2_minus_p = IntPoly((-13, 0, 1))
    assert (x2_minus_p**2).coeffs == (169, 0, -26, 0, 1)
    assert str(IntPoly((-5, 0, 1))) == "x^2 - 5"
    assert str(IntPoly((1, -2, 0, 4))) == "4*x^3 - 2*x + 1"
    assert str(IntPoly(())) == "0"
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    p = IntPoly((1, 1))
    assert (p * p).coeffs == (1, 2, 1)
    assert p(9) == 10
