import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from legdet.exactla import (
    IntPoly,
    ParamDet,
    adjugate_apply,
    charpoly,
    crt_symmetric,
    det,
    det_bareiss,
    det_many,
    mdl_check,
    moduli,
    param_det_expand,
    modulus_bits,
    shifted_dets,
    _charpoly_bounds,
    _charpoly_mod,
    _crt_dets,
    _eliminate,
    _moduli_for,
)
import legdet.exactla as ex
from legdet.errors import InternalError
from legdet.charmat import build, symbol_vector
from legdet.ntheory import primes_in_range


def row_bound_pair(m):
    """m as a kernel array, with its row Hadamard bound and no known divisor."""
    a = ex._square(m)
    return a, ex._row_bound(a), 1


def rand_square(rng, n, lo=-99, hi=99):
    return np.array([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)], dtype=np.int64)


def oracles_primes(lo, hi):
    return [q for q in range(lo, hi + 1) if oracles.trial_division_is_prime(q)]


def column(v):
    return np.array([[x] for x in v], dtype=np.int64)


def det_mod(rows, m):
    """det(rows) mod m by the stacked kernel, as a stack of one."""
    a = np.array([rows], dtype=np.int64) % m
    return _eliminate(a, np.array([m], dtype=np.int64))[0]


# --- determinants -----------------------------------------------------------


def test_det_examples():
    assert det([[-1, 0], [0, 1]]) == -1
    assert det(np.array([[-1, -2], [-2, 1]])) == -5
    assert det(np.identity(4, dtype=np.int64)) == 1


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


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
    m = np.array(rows, dtype=np.int64)
    want = oracles.det_cofactor([list(r) for r in rows])
    assert det_bareiss(m) == want
    assert _crt_dets([row_bound_pair(m)]) == [want]


def test_bareiss_and_crt_agree_on_1000_seeded_matrices():
    rng = random.Random(42)
    ms = [rand_square(rng, rng.randint(1, 8)) for _ in range(1000)]
    assert _crt_dets(map(row_bound_pair, ms)) == [det_bareiss(m) for m in ms]


def test_det_crt_path_on_larger_matrix():
    rng = random.Random(7)
    m = rand_square(rng, 12)  # n > 8 dispatches to the CRT path
    assert det(m) == det_bareiss(m)


@pytest.mark.parametrize("form", ["lists", "object"])
@pytest.mark.parametrize(
    "top", [2**62 - 1, 2**62, 2**63 - 1, 2**63, -(2**63), 10**40],
    ids=["2^62-1", "2^62", "2^63-1", "2^63", "-2^63", "10^40"],
)
def test_det_crt_path_with_huge_entries(top, form):
    # entries at and beyond the int64 conversion boundary of 2^62, given as
    # nested lists or as an object array: below it they become int64, from
    # it on Python ints, which det, charpoly and the shifted samples reduce
    # to int64 residues per modulus and the adjugate solve eliminates as
    # they are; every path must agree with Bareiss on the Python-int rows
    rng = random.Random(8)
    rows = [[top if (i + j) % 3 == 0 else rng.randint(-9, 9) for j in range(10)] for i in range(10)]
    m = rows if form == "lists" else np.array(rows, dtype=object)
    want = ex._bareiss([list(r) for r in rows])
    assert want != 0
    assert det(m) == det_bareiss(m) == want
    w, d = adjugate_apply(m, column([1] * 10))
    assert d == want
    # the exact product of the big entries with adj(m) 1
    assert (np.array(rows, dtype=object) @ w).tolist() == [[d]] * 10
    f = charpoly(m)
    assert f.coeffs[0] == want and f.coeffs[-1] == 1
    f1, g1 = [rng.randint(-9, 9) for _ in range(10)], [rng.randint(-9, 9) for _ in range(10)]
    points = [(1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 3, 1)]
    want_shifted = [ex._bareiss(oracles.shifted_rows(rows, f1, g1, *pt)) for pt in points]
    assert shifted_dets(m, f1, g1, points) == want_shifted
    with pytest.raises(ValueError):
        det(np.array(rows, dtype=np.float64))


def test_det_gram_square_identity():
    rng = random.Random(5)
    for _ in range(50):
        m = rand_square(rng, rng.randint(1, 6), -9, 9)
        assert det(m.T @ m) == det(m) ** 2


def test_det_zero_row():
    assert det([[0, 0], [1, 1]]) == 0


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


def test_int64_bound_per_kernel():
    # modulus_bits(terms) keeps a sum of `terms` residue products in int64
    assert all(modulus_bits(t) == 27 for t in range(1, 513))
    assert all(modulus_bits(t) == 26 for t in range(513, 2049))
    for e in range(21):
        for terms in {2**e - 1, 2**e, 2**e + 1} - {0}:
            assert terms * (moduli(modulus_bits(terms))[0] - 1) ** 2 < 2**63


def test_crt_residues_size_moduli_from_the_terms():
    # charpoly above n = 512 takes 26-bit moduli; det keeps 27
    assert _moduli_for(513, 1) == [moduli(26)[0]]
    assert _moduli_for(1, 1) == [moduli(27)[0]]
    assert _moduli_for(513, moduli(26)[0]) == list(moduli(26)[:2])


def test_det_kernels_agree_above_256():
    rng = random.Random(260)
    rows = [[rng.randint(-1, 1) for _ in range(260)] for _ in range(260)]
    m = moduli(27)[0]
    assert det_mod(rows, m) == oracles.det_mod_py(rows, m)


# 3, 5 and 7 force pivot swaps and all-zero columns; at 2^31 - 1 the
# elimination's panels are 2 steps wide, so the trailing block takes its
# pending updates every other step.  moduli(27)[0] and moduli(26)[0] are
# the largest charpoly moduli for n <= 512 and n <= 2048.  Charpoly and the
# oracle's solve (`oracles.solve_mod`) sum n products, so they are compared
# only where n * (m-1)^2 < 2^63.
KERNEL_MODULI = (3, 5, 7, moduli(27)[0], moduli(26)[0], 2**31 - 1)


def kernel_cases():
    """Seeded random matrices, n = 1..40, with a repeated row in every third
    (singular over Z, so singular mod every modulus)."""
    rng = random.Random(404)
    for n in range(1, 41):
        rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
        if n > 1 and n % 3 == 0:
            rows[rng.randrange(1, n)] = list(rows[0])
        yield rows, [rng.randint(-99, 99) for _ in range(n)]


@pytest.mark.parametrize("m", KERNEL_MODULI)
def test_det_and_solve_kernels_match_pure_python(m):
    singular = 0
    for rows, vec in kernel_cases():
        want = oracles.det_mod_py(rows, m)
        assert det_mod(rows, m) == want
        if len(rows) * (m - 1) ** 2 < 2**63:
            aug = np.array([row + [x] for row, x in zip(rows, vec)], dtype=np.int64)
            assert oracles.solve_mod(aug, m) == oracles.solve_mod_py(rows, vec, m)
        singular += want == 0
    assert singular >= 13


@pytest.mark.parametrize("m", KERNEL_MODULI)
def test_charpoly_kernel_matches_pure_python(m):
    for rows, _ in kernel_cases():
        if len(rows) * (m - 1) ** 2 < 2**63:
            arr = np.array(rows, dtype=np.int64)
            assert _charpoly_mod(arr, m) == oracles.charpoly_mod_py(rows, m)


@pytest.mark.parametrize("p", [101, 397])
def test_charpoly_kernel_on_derogatory_aplus(p):
    # A+ is derogatory (at p = 397, +-sqrt(397) with multiplicity 98 each),
    # so about half the Hessenberg steps find a zero column, inside panels
    # as well as at their edges, and leave a zero subdiagonal entry
    rows = build("aplus", p).tolist()
    arr = np.array(rows, dtype=np.int64)
    for m in (3, 7, moduli(27)[0], moduli(27)[1]):
        got = _charpoly_mod(arr, m)
        assert got == oracles.charpoly_per_step_np(arr, m)
        if m in (7, moduli(27)[0]):
            assert got == oracles.charpoly_mod_py(rows, m)


# --- the stacked det kernel --------------------------------------------------


def stack_of(slices):
    """(rows, modulus) pairs of one size as an int64 stack and its moduli."""
    a = np.array([[[x % m for x in row] for row in rows] for rows, m in slices], dtype=np.int64)
    return a, np.array([m for _, m in slices], dtype=np.int64)


def test_stacked_kernel_matches_both_oracles_on_mixed_stacks():
    # per n, one stack holds every kernel modulus (so 2^31 - 1 sets the room
    # of the small moduli too) for three matrices: a random one, the same
    # with column 0 zero above its last row (pivot on row n-1 at step 0, so
    # its slices pivot on other rows than their neighbours), and one with a
    # repeated row (singular, next to the nonsingular slices)
    for rows, _ in kernel_cases():
        n = len(rows)
        late = [[0 if (j == 0 and i < n - 1) else x for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
        late[n - 1][0] = late[n - 1][0] or 1
        mats = [rows, late] + ([[rows[0]] + rows[:-1]] if n > 1 else [])
        slices = [(r, m) for m in KERNEL_MODULI for r in mats]
        a, mods = stack_of(slices)
        old = oracles.eliminate_delayed_np(a.copy(), mods)
        got = _eliminate(a, mods)
        want = [oracles.det_mod_py(r, m) for r, m in slices]
        assert got == want == old
        if n > 1:
            assert all(got[s] == 0 for s in range(2, len(slices), 3))


def test_stacked_kernel_at_n_209():
    rows = build("aplus", 419).tolist()
    rng = random.Random(209)
    shifted = [[x + rng.randint(-9, 9) for x in row] for row in rows]
    slices = [(rows, moduli(27)[0]), (shifted, moduli(27)[1]), (rows, 7)]
    a, mods = stack_of(slices)
    old = oracles.eliminate_delayed_np(a.copy(), mods)
    got = _eliminate(a, mods)
    assert got == old
    assert got[:2] == [oracles.det_mod_py(r, m) for r, m in slices[:2]]


# --- the panel-blocked kernels against the paths they replaced ---------------

# one panel less one, one panel, one panel and one step, two panels and
# around them, and the largest benchmark matrix; kernel_cases stops at n = 40
PANEL_SIZES = (31, 32, 33, 64, 65, 209)
PANEL_MODULI = (3, 5, 7, moduli(27)[0], 2**31 - 1)


def panel_matrices(n):
    """Seeded n x n matrices for the panel tests: a dense one, a sparse one
    (a nonzero entry in about one of six, so zero pivots and, mod 3, 5 and
    7, zero columns fall inside panels), and the dense one with a repeated
    row (singular)."""
    rng = random.Random(f"panel|{n}")
    dense = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
    sparse = [[rng.randint(-9, 9) if rng.random() < 1 / 6 else 0 for _ in range(n)] for _ in range(n)]
    singular = [list(row) for row in dense]
    singular[n // 2 + 1] = list(dense[n // 3])
    return [dense, sparse, singular]


def upper(a):
    """The upper triangles (with the columns right of them) of a stack."""
    return [np.triu(x).tolist() for x in a]


@pytest.mark.parametrize("n", PANEL_SIZES)
def test_panel_elimination_matches_the_replaced_path(n):
    # one mixed-modulus stack of every panel modulus for each matrix, so the
    # width is 2 for all of them: against the delayed-reduction path, which
    # must also leave the same reduced upper triangles; then each modulus
    # on its own, at its own width, against the pure-Python det
    mats = panel_matrices(n)
    slices = [(r, m) for m in PANEL_MODULI for r in mats]
    a, mods = stack_of(slices)
    b = a.copy()
    assert _eliminate(a, mods) == oracles.eliminate_delayed_np(b, mods)
    assert upper(a) == upper(b)
    zero = 0
    for m in PANEL_MODULI:
        a, mods = stack_of([(r, m) for r in mats])
        got = _eliminate(a, mods)
        if n <= 65:
            assert got == [oracles.det_mod_py(r, m) for r in mats]
        else:
            assert got == oracles.eliminate_delayed_np(stack_of([(r, m) for r in mats])[0], mods)
        zero += got.count(0)
    assert zero >= len(PANEL_MODULI)


@pytest.mark.parametrize("n", PANEL_SIZES)
def test_panel_solve_matches_pure_python(n):
    # the modular solve that adjugate_apply is compared with (`oracles`), on
    # [A | V] with three columns of V, where n (m-1)^2 < 2^63: det A mod m
    # as the stacked kernel gives it, A X = V mod m whenever A is invertible
    # mod m, and up to n = 65 each column agrees with the one-vector
    # pure-Python solve
    rng = random.Random(f"solve|{n}")
    for rows in panel_matrices(n):
        vs = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(n)]
        aug = np.array([row + v for row, v in zip(rows, vs)], dtype=np.int64)
        for m in PANEL_MODULI[:4]:
            det_m, x = oracles.solve_mod(aug, m)
            assert det_m == _eliminate(aug[None, :, :n] % m, np.array([m]))[0]
            if det_m:
                x = np.array(x, dtype=np.int64).reshape(n, 3)
                assert ((aug[:, :n] % m) @ x % m == aug[:, n:] % m).all()
            else:
                assert x is None
            want = [oracles.solve_mod_py(rows, col, m) for col in zip(*vs)] if n <= 65 else []
            for i, (d, sol) in enumerate(want):
                assert d == det_m and sol == (None if x is None else x[:, i].tolist())


@pytest.mark.parametrize("n", PANEL_SIZES)
def test_panel_hessenberg_matches_the_replaced_path(n):
    for rows in panel_matrices(n):
        arr = np.array(rows, dtype=np.int64)
        for m in PANEL_MODULI[:4]:
            got = _charpoly_mod(arr, m)
            assert got == oracles.charpoly_per_step_np(arr, m)
            if n <= 33:
                assert got == oracles.charpoly_mod_py(rows, m)


def test_det_many_crosses_stack_boundaries(monkeypatch):
    # a stack holds 40 slices of 40 x 40, about three matrices' moduli: the
    # stream is cut inside a matrix's moduli, and again wherever the size
    # changes
    import legdet.exactla as ex

    calls = []
    real = ex._eliminate
    monkeypatch.setattr(ex, "_eliminate", lambda a, mods: calls.append(a.shape) or real(a, mods))
    rng = random.Random(88)
    sizes = [40] * 4 + [12, 12] + [40] * 2 + [9]
    ms = [rand_square(rng, n) for n in sizes]
    assert det_many(ms) == [det_bareiss(m) for m in ms]
    counts = [len(ex._moduli_for(1, 2 * row_bound_pair(m)[1])) for m in ms]
    fit = ex._STACK_BYTES // (8 * 40 * 40)
    first = sum(counts[:4])
    assert fit < first < 2 * fit and fit not in itertools.accumulate(counts)
    assert calls == [
        (fit, 40, 40), (first - fit, 40, 40), (sum(counts[4:6]), 12, 12),
        (sum(counts[6:8]), 40, 40), (counts[8], 9, 9),
    ]


def test_det_many_agrees_with_det_one_at_a_time():
    rng = random.Random(99)
    ms = [rand_square(rng, rng.randint(1, 30), -20, 20) for _ in range(40)]
    ms.append(np.zeros((10, 10), dtype=np.int64))
    ms.append(np.ones((10, 10), dtype=np.int64))  # singular, nonzero rows
    assert det_many(ms) == [det(m) for m in ms]
    assert det_many([]) == []


def test_det_many_builds_matrices_one_stack_ahead(monkeypatch):
    import legdet.exactla as ex

    built, seen = [], []
    real = ex._eliminate
    monkeypatch.setattr(ex, "_eliminate", lambda a, mods: seen.append(len(built)) or real(a, mods))
    rng = random.Random(5)

    def matrices():
        for _ in range(30):
            built.append(1)
            yield rand_square(rng, 40)

    det_many(matrices())
    fit = ex._STACK_BYTES // (8 * 40 * 40)
    # a stack runs as soon as it is full: no more matrices are alive than
    # one stack's slices can come from, plus the one that overflowed it
    assert seen[0] < 30 and all(b - a <= fit for a, b in zip(seen, seen[1:]))


# --- characteristic polynomials ---------------------------------------------


def test_charpoly_examples():
    assert charpoly([[-1, 0], [0, 1]]) == IntPoly((-1, 0, 1))
    assert charpoly(np.array([[-1, -2], [-2, 1]])) == IntPoly((-5, 0, 1))


@pytest.mark.parametrize("n", [1, 3, 9])
def test_charpoly_of_zero_matrix_is_x_to_the_n(n):
    # at n = 9 the constant-term check takes det's CRT path
    assert charpoly(np.zeros((n, n), dtype=np.int64)) == IntPoly((0,) * n + (1,))


def test_charpoly_invariants_on_200_random_matrices():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 7)
        m = rand_square(rng, n, -20, 20)
        f = charpoly(m)
        assert f.degree == n
        assert f.coeffs[-1] == 1
        assert f.coeffs[0] == (-1) ** n * det(m)
        assert f.coeffs[n - 1] == -int(np.trace(m))
        for x in range(4):
            assert f(x) == det(x * np.identity(n, dtype=np.int64) - m)


def test_charpoly_bound_covers_every_coefficient():
    # A+ and A- at every p <= 199, and seeded random matrices
    mats = [build(name, p) for p in oracles_primes(3, 199) for name in ("aplus", "aminus")]
    rng = random.Random(419)
    mats += [rand_square(rng, rng.randint(1, 12), -30, 30) for _ in range(100)]
    for m in mats:
        # the coefficients, reconstructed against the looser bound
        # C(n,k) n^ceil(k/2) B^k that charpoly used before
        n, b = len(m), int(np.abs(m).max())
        loose = max(math.comb(n, k) * n ** ((k + 1) // 2) * b**k for k in range(1, n + 1))
        used = _moduli_for(n, 2 * loose)
        coeffs = [crt_symmetric(r, used) for r in zip(*(_charpoly_mod(m, mod) for mod in used))]
        assert coeffs[-1] == 1
        assert max(abs(c) for c in coeffs) <= max(_charpoly_bounds(m))


def test_charpoly_bound_saves_moduli_at_n_198_and_209():
    # 36 and 39 moduli with the bound C(n,k) n^ceil(k/2) B^k
    for p, want in ((397, 33), (419, 35)):
        for name in ("aplus", "aminus"):
            m = build(name, p)
            assert len(_moduli_for(len(m), 2 * max(_charpoly_bounds(m)))) == want


def test_moduli_cover_the_bounds_up_to_the_largest_matrix_field():
    # cli.MATRIX_DIM_MAX = 2048 is n = 2046 at p = 4093; the kept moduli
    # run out at p = 2371 for charpoly and p = 2459 for det, and the primes
    # below them follow, in the same descending order
    for p in (2371, 2459, 4093):
        for name in ("aplus", "aminus"):
            m = build(name, p)
            det_bound = row_bound_pair(m)[1]
            for terms, target in ((1, 2 * det_bound), (len(m), 2 * max(_charpoly_bounds(m)))):
                used = _moduli_for(terms, target)
                assert math.prod(used) > target, (p, name, terms)
                kept = moduli(modulus_bits(terms))
                assert used[: len(kept)] == list(kept[: len(used)])
                assert used == sorted(set(used), reverse=True)


def test_charpoly_rejects_nonsquare():
    with pytest.raises(ValueError):
        charpoly([[1, 2]])


# --- adjugate solve ----------------------------------------------------------


def test_adjugate_apply_matches_rational_inverse():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 7)
        m = rand_square(rng, n, -9, 9)
        d = det(m)
        if d == 0:
            continue
        u = rand_square(rng, n, -9, 9)[: rng.randint(1, n)].T  # n x k, k = 1..n
        w, d2 = adjugate_apply(m, u)
        assert d2 == d and w.dtype == object and w.shape == u.shape
        # m @ w must equal det * u, i.e. w = det * m^{-1} u
        assert (m @ w).tolist() == (d * u).tolist()


def test_adjugate_apply_rejects_singular():
    with pytest.raises(ValueError):
        adjugate_apply([[1, 1], [1, 1]], column([1, 1]))


def test_adjugate_apply_skips_a_modulus_dividing_det():
    # det is the first modulus of the modular solve, which must skip it (and
    # the n > 8 determinant reconstructs it from one more modulus); the
    # Bareiss solve reads no modulus, and the two agree
    n = 10
    q = moduli(modulus_bits(n))[0]
    m = np.identity(n, dtype=np.int64)
    m[0, 0] = q
    v = [random.Random(11).randint(-99, 99) for _ in range(n)]
    w, d = adjugate_apply(m, column(v))
    assert d == q
    assert (m @ w)[:, 0].tolist() == [d * t for t in v]
    assert oracles.adjugate_crt(m, column(v), None) == (w[:, 0].tolist(), d)


def test_adjugate_apply_matches_the_modular_solve_above_the_bareiss_size():
    # the one Bareiss solve against the modular solve it replaced above
    # n = 8: seeded draws at n = 9, 10, 12 and 24, and A+ of p = 103 with
    # u = 1, the adj(A+) 1 whose inner product with u1 EQ_DP_U1AU0 states
    rng = random.Random("adjugate|large")
    cases = []
    for n in (9, 10, 12, 24):
        a = rand_square(rng, n, -9, 9)
        cases.append((a, rand_square(rng, n, -99, 99)[:, : rng.randint(1, 4)]))
    cases.append((build("aplus", 103), np.ones((51, 1), dtype=np.int64)))
    for a, u in cases:
        want, d = oracles.adjugate_crt(a, u, None)
        w, got = adjugate_apply(a, u)
        assert got == d != 0
        assert w.ravel().tolist() == want
        assert w.shape == u.shape


def adjugate_draws():
    """Seeded (a, u) kernel arrays with n <= 8 and k <= 4: dense draws, draws
    with a repeated row (singular), and draws with one entry at 2^62 or
    beyond, which makes a a Python-int object array."""
    rng = random.Random("adjugate|small")
    for i in range(300):
        n, k = rng.randint(1, 8), rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if i % 5 == 1 and n > 1:
            rows[-1] = list(rows[0])
        if i % 5 == 2:
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice([2**62, -(2**62) - 5, 10**30])
        u = [[rng.randint(-99, 99) for _ in range(k)] for _ in range(n)]
        yield ex._square(rows), ex._int_array(u)


def test_small_adjugate_matches_the_modular_solve():
    # the Bareiss solve of n <= 8 against the modular solve it replaced
    # there: the same adj(a) u and det, and the same ValueError on a
    # singular a
    singular = big = 0
    for a, u in adjugate_draws():
        try:
            want, d = oracles.adjugate_crt(a, u, None)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                ex._adjugate_bareiss(a, u)
            continue
        rows, got = ex._adjugate_bareiss(a, u)
        assert got == d and [x for row in rows for x in row] == want
        big += a.dtype == object
    assert singular >= 40 and big >= 40


def test_no_modulus_avoids_zero(monkeypatch):
    # every modulus divides 0, so a search for one that does not would walk
    # every odd number below the kept moduli: refused before any is tried
    monkeypatch.setattr(ex, "_primes_below", lambda m: pytest.fail("searched for moduli"))
    monkeypatch.setattr(oracles, "adj_mod", lambda *a, **kw: pytest.fail("solved mod a modulus"))
    with pytest.raises(ValueError, match="avoids 0"):
        _moduli_for(1, 10, 0)
    a = np.identity(10, dtype=np.int64) * 2
    with pytest.raises(ValueError, match="avoids 0"):
        oracles.adjugate_crt(a, column([1] * 10), 0)


def test_small_solves_build_no_moduli(monkeypatch):
    # at n <= 8 adjugate_apply, and mdl_check with it, is one Bareiss
    # elimination: no moduli, no stack, no CRT
    monkeypatch.setattr(ex, "_moduli_for", lambda *a, **kw: pytest.fail("built moduli"))
    rng = random.Random(31)
    for n in range(1, 9):
        a = rand_square(rng, n, -9, 9)
        while det(a) == 0:
            a = rand_square(rng, n, -9, 9)
        u, v = rand_square(rng, n, -9, 9)[:, :3], rand_square(rng, n, -9, 9)[:, :3]
        w, d = adjugate_apply(a, u)
        assert (a @ w).tolist() == (d * u).tolist()
        assert mdl_check(a, u, v)


def test_mdl_above_the_bareiss_size_takes_the_bareiss_solve(monkeypatch):
    # above n = 8 as below it: one Bareiss solve, and no moduli
    calls = []
    real = ex._adjugate_bareiss
    monkeypatch.setattr(ex, "_adjugate_bareiss", lambda *a: calls.append(len(a[0])) or real(*a))
    monkeypatch.setattr(ex, "_moduli_for", lambda *a, **kw: pytest.fail("built moduli"))
    rng = random.Random(37)
    for n in (9, 10, 12):
        a = rand_square(rng, n, -9, 9)
        u, v = rand_square(rng, n, -9, 9)[:, :2], rand_square(rng, n, -9, 9)[:, :2]
        assert mdl_check(a, u, v)
        bad = v.copy()
        bad[0, 0] += 1
        assert mdl_check(a, u, bad)  # the lemma holds for every u and v
    assert calls == [9, 9, 10, 10, 12, 12]


# --- matrix-determinant lemma -------------------------------------------------


def test_mdl_trivial_examples():
    i2 = np.identity(2, dtype=np.int64)
    zero = column([0, 0])
    assert mdl_check(i2, zero, zero)
    e1 = column([1, 0])
    assert mdl_check(i2, e1, e1)


def test_mdl_rejects_singular():
    with pytest.raises(ValueError):
        mdl_check([[1, 1], [1, 1]], column([1, 0]), column([1, 0]))


def test_mdl_random_instances():
    rng = random.Random(23)
    done = 0
    while done < 100:
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        a = rand_square(rng, n, -9, 9)
        if det(a) == 0:
            continue
        u = np.array([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        v = np.array([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        assert mdl_check(a, u, v)
        done += 1


# --- parameterized determinant expansion --------------------------------------


def test_param_det_identity_example():
    rng = random.Random("paramdet|0")
    points = [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(20)]
    pd, directs = param_det_expand(np.identity(2, dtype=np.int64), [0, 0], [0, 0], points)
    # |I + x J| = 1 + 2x for the 2x2 all-ones J; scaled is alpha times it
    assert directs == [pd.scaled(*pt) for pt in points] == [1 + 2 * pt[0] for pt in points]
    assert (pd.alpha, pd.alpha1, pd.alpha2, pd.alpha3, pd.alpha4, pd.cross_num) == (1, 3, 1, 1, 1, 0)
    assert pd.scaled(0, 0, 0, 0) == pd.alpha * pd.alpha
    assert pd.scaled(1, 0, 0, 0) == pd.alpha * pd.alpha1
    assert pd.scaled(0, 1, 0, 0) == pd.alpha * pd.alpha2
    assert pd.scaled(0, 0, 1, 0) == pd.alpha * pd.alpha3
    assert pd.scaled(0, 0, 0, 1) == pd.alpha * pd.alpha4


def test_param_det_rejects_singular():
    with pytest.raises(ValueError):
        param_det_expand([[1, 1], [1, 1]], [0, 0], [0, 0], [])


def test_param_det_random_postcondition():
    # the expansion agrees with the direct determinant at 20 seeded points
    rng = random.Random(31)
    done = 0
    while done < 200:
        n = rng.randint(1, 6)
        a = rand_square(rng, n, -9, 9)
        if det(a) == 0:
            continue
        f = [rng.randint(-9, 9) for _ in range(n)]
        g = [rng.randint(-9, 9) for _ in range(n)]
        pts_rng = random.Random(f"paramdet|{done}")
        points = [tuple(pts_rng.randint(-9, 9) for _ in range(4)) for _ in range(20)]
        pd, directs = param_det_expand(a, f, g, points)
        assert pd.scaled(0, 0, 0, 0) == pd.alpha * pd.alpha
        assert len(directs) == len(points)
        for pt, d in zip(points, directs):
            assert d == det(shifted_oracle(a, f, g, pt))
            assert pd.alpha * d == pd.scaled(*pt)
        done += 1


def test_shifted_matrix_entries():
    a = np.array([[1, 2], [3, 4]])
    [s] = ex._shifted_samples(a, [1, -1], [2, 0], [(1, 1, 1, 1)])
    assert s.tolist() == oracles.shifted_rows(a.tolist(), [1, -1], [2, 0], 1, 1, 1, 1)
    # entry (i, j) = a(i, j) + x + f(i) y + g(j) z + f(i) g(j) w
    assert s[0, 0] == 1 + 1 + 1 + 2 + 2
    assert s[1, 1] == 4 + 1 - 1 + 0 + 0


# --- shifted samples: broadcast and column-multilinear bound ------------------


def shifted_oracle(a, f, g, pt):
    """The shifted matrix as nested lists of Python ints."""
    return oracles.shifted_rows(a.tolist(), f, g, *pt)


def expansion_from_row_bound_dets(a, f, g):
    """The ParamDet of a shifted by f and g, from its five base determinants
    taken by det_many on the oracle's matrices (row Hadamard moduli)."""
    base = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    return ParamDet(*det_many(shifted_oracle(a, f, g, pt) for pt in base))


def catalog_families(p, seed):
    """(a, f, points) for each shifted family the catalog samples at p: A+
    on T12's and COR_AFTER_T12's points, and the two Sun matrices, each with
    the base points its expansion takes (A+'s own det comes from det_many)."""
    import legdet.verify as v

    u1 = symbol_vector(p)
    base = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    pts = lambda name: [*base, *v._sample_tuples(v._rng(seed, name, p))]
    if p > 3:
        aplus_pts = pts("T12_I" if p % 4 == 1 else "T12_II")
        if p % 4 == 3:
            cor = v._sample_tuples(v._rng(seed, "COR_AFTER_T12", p))
            aplus_pts += [pt for x, y, _, w in cor for pt in ((x, y, 0, 0), (0, y, 0, w))]
        yield build("aplus", p), u1, aplus_pts
        sun = [(0, 0, 0, 0), *pts("SUN_C31_I")]
        yield build("sun_plus", p), [0, *u1], sun
    sun = [(0, 0, 0, 0), *pts("SUN_C31_II")]
    yield build("sun_minus", p), [0, *u1], sun


def test_shifted_bound_covers_every_catalog_sample_to_199():
    # each sample's determinant, from the expansion over base determinants
    # that the row Hadamard path computed, lies within its bound
    for p in primes_in_range(3, 199):
        for (a, f, seed0), (_, _, seed7) in zip(catalog_families(p, 0), catalog_families(p, 7)):
            pd = expansion_from_row_bound_dets(a, f, f)
            points = seed0 + seed7
            for pt, bound in zip(points, ex._shifted_bounds(a, f, f, points)):
                assert abs(pd.scaled(*pt)) <= abs(pd.alpha) * bound, (p, pt)


def random_shift_case(rng, trial):
    """(a, f, g, points) at n = 1..12, each trial one of: plain, zero
    columns, singular a, f = g = 0, and entries large enough for the
    object-array path."""
    n = rng.randint(1, 12)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    f = [rng.randint(-9, 9) for _ in range(n)]
    g = [rng.randint(-9, 9) for _ in range(n)]
    points = [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4)]
    case = trial % 5
    if case == 1:
        for k in rng.sample(range(n), rng.randint(1, n)):
            for row in rows:
                row[k] = 0
    elif case == 2 and n > 1:
        rows[-1] = [2 * x for x in rows[0]]
    elif case == 3:
        f, g = [0] * n, [0] * n
    elif case == 4:
        big = 10 ** rng.randint(15, 30)
        which = rng.randrange(3)
        if which == 0:
            rows = [[x * big for x in row] for row in rows]
        elif which == 1:
            points = [(x * big, y, z * big, w) for x, y, z, w in points]
        else:
            f = [x * big for x in f]
    return ex._int_array(rows), f, g, points


def test_shifted_bound_and_dets_on_random_cases():
    rng = random.Random(1213)
    paths = set()
    for trial in range(250):
        a, f, g, points = random_shift_case(rng, trial)
        want = [det_bareiss(shifted_oracle(a, f, g, pt)) for pt in points]
        bounds = list(ex._shifted_bounds(a, f, g, points))
        assert all(abs(d) <= b for d, b in zip(want, bounds)), (trial, want, bounds)
        samples = list(ex._shifted_samples(a, f, g, points))
        assert [s.tolist() for s in samples] == [shifted_oracle(a, f, g, pt) for pt in points]
        assert shifted_dets(a, f, g, points) == want
        paths.add((samples[0].dtype == object, len(a) > 8))
    assert paths == {(False, False), (False, True), (True, False), (True, True)}


def test_shifted_dets_match_det_many_across_chunks_and_stacks(monkeypatch):
    rng = random.Random(77)

    def case(n, count):
        a = rand_square(rng, n, -9, 9)
        f = [rng.randint(-1, 1) for _ in range(n)]
        g = [rng.randint(-9, 9) for _ in range(n)]
        points = [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(count)]
        want = det_many(shifted_oracle(a, f, g, pt) for pt in points)
        assert shifted_dets(a, f, g, points) == want
        return a, f, g, points

    # at n = 40 a chunk holds 5 samples and a stack 40 slices: 50 points
    # take ten chunks, and each sample's moduli are cut across stacks
    a, f, g, points = case(40, 50)
    first = next(ex._shifted_samples(a, f, g, points))
    assert first.base.shape == (ex._STACK_BYTES // (64 * 40 * 40), 40, 40) == (5, 40, 40)
    # stacks of 3 slices and chunks of one sample at n = 20, stacks of one
    # slice above that
    monkeypatch.setattr(ex, "_STACK_BYTES", 8 * 20 * 20 * 3)
    for n in (1, 5, 9, 20, 24):
        case(n, 11)
    assert shifted_dets(np.identity(3, dtype=np.int64), [0] * 3, [0] * 3, []) == []


def test_shifted_bound_takes_fewer_slices_than_row_hadamard():
    for p in (97, 101, 103, 107):
        for a, f, points in catalog_families(p, 0):
            col = sum(len(_moduli_for(1, 2 * b)) for b in ex._shifted_bounds(a, f, f, points))
            row = sum(
                len(_moduli_for(1, 2 * row_bound_pair(shifted_oracle(a, f, f, pt))[1]))
                for pt in points
            )
            assert col < row, (p, col, row)


# --- rank mod q and the known divisor ---------------------------------------


def rank_cases():
    """(matrix, q): zero, full-rank, singular and rectangular matrices at
    q = 2, small primes and primes near 2^31, then every named matrix at
    p <= 199 mod 2 and mod p."""
    rng = random.Random(2024)
    for q in (2, 3, 5, 101, 2**31 - 1):
        for n in (1, 2, 5, 12):
            yield np.zeros((n, n), dtype=np.int64), q
            yield rand_square(rng, n), q
            # rank at most r, from a product of n x r and r x n factors
            r = rng.randint(0, n)
            left = np.array([[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)], dtype=np.int64)
            right = np.array([[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)], dtype=np.int64)
            yield left.reshape(n, r) @ right.reshape(r, n), q
            yield q * rand_square(rng, n) + np.diag([1] * r + [0] * (n - r)), q
        yield np.array([[rng.randint(-99, 99) for _ in range(7)] for _ in range(4)], dtype=np.int64), q
        yield np.array([[rng.randint(-99, 99) for _ in range(4)] for _ in range(7)], dtype=np.int64), q
    for p in oracles_primes(3, 199):
        for name in ("aplus", "aminus", "ap", "sun_plus", "sun_minus"):
            yield build(name, p), p
            yield build(name, p), 2


def test_rank_mod_agrees_with_python_elimination():
    seen = set()
    for m, q in rank_cases():
        want = oracles.rank_mod_py(m.tolist(), q)
        assert ex._rank_mod(m, q) == want, (m.tolist(), q)
        seen.add((want == 0, want == min(m.shape)))
    # zero, full-rank and singular nonzero matrices all occur
    assert seen == {(True, False), (False, True), (False, False)}


def test_rank_mod_leaves_its_input_alone():
    m = build("aplus", 29).copy()  # writable
    before = m.copy()
    ex._rank_mod(m, 29)
    assert np.array_equal(m, before)


def test_named_dets_and_charpolys_divided_by_p_equal_the_undivided_path_to_199():
    for p in oracles_primes(3, 199):
        mats = [build(name, p) for name in ("aplus", "aminus", "ap", "sun_plus", "sun_minus")]
        assert det_many(mats, p) == det_many(mats)
        assert det_many(mats, 2) == det_many(mats)
        for m in mats[:2]:  # the charpolys that legdet computes
            assert charpoly(m, q=p) == charpoly(m)


def test_known_divisor_divides_out_the_power_of_p(monkeypatch):
    # det(A+) at p = 397 is 847 bits, 846 of them p^98: one modulus and the
    # cross-check modulus, against 32; charpoly takes 24 and one, against 33
    used = []
    real = ex._moduli_for
    monkeypatch.setattr(ex, "_moduli_for", lambda *a: used.append(real(*a)) or used[-1])
    a = build("aplus", 397)
    n, r = len(a), ex._rank_mod(a, 397)
    assert (n, r) == (198, 100)
    assert ex._known_divisor(a, 397) == 397**98 and ex._known_divisor(a, 397, updates=2) == 397**96
    assert ex._known_divisor(a, None) == 1
    assert det(a, 397) == det(a) == oracles.euler_legendre(2, 397) * 397**98
    assert [len(u) for u in used] == [2, 32]
    used.clear()
    # each charpoly computes its constant term's det after its coefficients
    assert charpoly(a, q=397) == charpoly(a)
    assert [len(u) for u in used] == [25, 2, 33, 32]


def test_divided_crt_cross_checks_with_the_last_modulus():
    mods = [1000003, 999983, 999979]
    x = 7**5 * 12345
    assert ex._divided_crt([x % m for m in mods], mods, 7**5) == x
    with pytest.raises(InternalError, match="cross-check"):
        ex._divided_crt([x % m for m in mods], mods, 7**6)


def _rank_one_too_low(monkeypatch):
    real = ex._rank_mod
    monkeypatch.setattr(ex, "_rank_mod", lambda a, q: real(a, q) - 1)


@pytest.mark.parametrize("p", [101, 103, 197, 199])
def test_a_rank_one_too_low_fails_the_cross_check(monkeypatch, p):
    # v_p(det A+-) is exactly n - rank mod p here, so q^(e+1) does not divide
    a = build("aplus", p)
    d = det(a)
    _rank_one_too_low(monkeypatch)
    with pytest.raises(InternalError, match="cross-check"):
        det_many([a], p)
    with pytest.raises(InternalError, match="cross-check"):
        charpoly(a, d, p)


def test_a_rank_one_too_low_fails_the_cross_check_of_shifted_samples(monkeypatch):
    # a is diagonal with 4 units and 8 multiples of 5, so rank 4 mod 5; a
    # generic rank-2 shift leaves 5^6 = 5^(n - r - 2) exactly in the det
    rng = random.Random(12)
    n, q = 12, 5
    a = np.diag([1, 2, 3, 4] + [q * rng.choice([1, 2, 3, 4]) for _ in range(n - 4)]).astype(np.int64)
    f = [rng.randint(-9, 9) for _ in range(n)]
    g = [rng.randint(-9, 9) for _ in range(n)]
    points = [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(10)]
    want = shifted_dets(a, f, g, points)
    assert shifted_dets(a, f, g, points, q) == want
    assert any(d % q**6 == 0 and d % q**7 for d in want)
    _rank_one_too_low(monkeypatch)
    with pytest.raises(InternalError, match="cross-check"):
        shifted_dets(a, f, g, points, q)


def test_bareiss_sizes_take_no_rank(monkeypatch):
    monkeypatch.setattr(ex, "_rank_mod", lambda a, q: pytest.fail("ranked an n <= 8 matrix"))
    a = build("aplus", 17)  # n = 8
    assert det_many([a], 17) == det_many([a])
    assert charpoly(a, q=17) == charpoly(a)
    f = symbol_vector(17)
    assert shifted_dets(a, f, f, [(1, 2, 3, 4)], 17) == shifted_dets(a, f, f, [(1, 2, 3, 4)])


# --- IntPoly ------------------------------------------------------------------


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
