from fractions import Fraction
from math import gcd

from gshe.algebra import LinComb, inner
from gshe.morphisms import (covariant_symbols, p_ito, phi_hat_geo, tau_c,
                            tau_star)
from gshe.subspaces import (contains, dimension_report, from_coords,
                            intersect, kernel, nice_functionals, rank, rref,
                            s_geo, s_ito, s_nice, subspace_sum, v_space,
                            verify_functionals, _coords, _pairing_row,
                            _symbol_kernel)
from gshe.symbols import full_basis


def _rand_matrix(rng, n, m):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(m)] for _ in range(n)]


def test_rank_nullity(rng):
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = _rand_matrix(rng, n, m)
        assert rank(mat) + len(kernel(mat)) == m


def test_kernel_vectors_annihilate(rng):
    for _ in range(20):
        mat = _rand_matrix(rng, 4, 6)
        for vec in kernel(mat):
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_rref_canonical_under_row_shuffle(rng):
    # basis-choice independence: two elimination orders, same canonical form
    for _ in range(20):
        mat = _rand_matrix(rng, 5, 7)
        shuffled = mat[:]
        rng.shuffle(shuffled)
        assert rref(mat)[0] == rref(shuffled)[0]


def _primitive_with_positive_pivot(row):
    pivot = next(x for x in row if x)
    return (all(type(x) is int for x in row) and pivot > 0
            and gcd(*row) == 1)


def ref_rref(mat):
    """Reference: textbook Gauss-Jordan over Fraction, pivots scaled to 1."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def test_rref_matches_fraction_reference(rng):
    for _ in range(200):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        mat = _rand_matrix(rng, n, m)
        for i in rng.sample(range(n), rng.randint(0, n - 1)):
            mat[i] = [Fraction(0)] * m
        for j in rng.sample(range(m), rng.randint(0, m - 1)):
            for row in mat:
                row[j] = Fraction(0)
        if rng.random() < 0.5:
            mat.append(list(rng.choice(mat)))
        rows, pivots = rref(mat)
        want_rows, want_pivots = ref_rref(mat)
        assert pivots == want_pivots
        assert all(_primitive_with_positive_pivot(row) for row in rows)
        assert [[Fraction(x, row[c]) for x in row]
                for row, c in zip(rows, pivots)] == want_rows
        # a kernel vector's last nonzero entry is at its free column
        for vec in kernel(mat):
            assert _primitive_with_positive_pivot(vec[::-1])


def test_zero_and_identity_maps():
    basis = full_basis()
    zero = _symbol_kernel([LinComb() for _ in basis])
    assert len(zero) == 54
    assert zero == tuple(tuple(int(i == j) for j in range(54))
                         for i in range(54))
    ident = _symbol_kernel([LinComb.of(g) for g in basis])
    assert len(ident) == 0


# -- independent modular oracle for the dimension table -----------------------

PRIMES = (2 ** 61 - 1, 2 ** 61 - 31)


def rank_mod_p(mat, p):
    """Rank over GF(p); Fractions enter through the inverse of their
    denominator, so no arithmetic is shared with ``rref``."""
    rows = [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
            for row in mat]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _map_matrix(images):
    keys = sorted({g.canonical_key() for img in images for g in img.terms})
    index = {key: i for i, key in enumerate(keys)}
    mat = [[Fraction(0)] * len(images) for _ in keys]
    for j, img in enumerate(images):
        for g, c in img.terms.items():
            mat[index[g.canonical_key()]][j] = c
    return mat


def test_dimension_table_mod_p():
    basis = full_basis()
    geo_map = _map_matrix([phi_hat_geo(LinComb.of(g)) for g in basis])
    ito_map = _map_matrix([p_ito(LinComb.of(g)) - LinComb.of(g)
                           for g in basis])
    nice_map = [_pairing_row(LinComb.of(f)) for f in nice_functionals()]
    cov = [_coords(v) for v in covariant_symbols()]
    geo, ito, nice, vs = s_geo(), s_ito(), s_nice(), v_space()
    pairs = ((geo, ito), (geo, nice), (ito, nice), (vs, nice),
             (intersect(geo, nice), intersect(ito, nice)))
    for p in PRIMES:
        # the exact kernels are as large as the kernels mod p, independent
        # mod p, and annihilated mod p: they are the kernels
        for mat, space, dim in ((geo_map, geo, 15), (ito_map, ito, 19),
                                (nice_map, nice, 51)):
            assert 54 - rank_mod_p(mat, p) == dim == len(space)
            assert rank_mod_p(list(space), p) == dim
            assert all(sum(a * x for a, x in zip(row, vec)) % p == 0
                       for row in mat for vec in space)
        assert rank_mod_p(cov, p) == 15
        assert rank_mod_p(cov[:14], p) == len(vs) == 14
        assert rank_mod_p(list(geo) + list(ito), p) == 32
        for u, v in pairs:
            assert len(intersect(u, v)) == (
                len(u) + len(v) - rank_mod_p(list(u) + list(v), p))


def test_dimension_report_all_pass():
    for name, expected, got in dimension_report():
        assert expected == got, name


def test_verify_functionals_all_pass():
    for name, expected, got in verify_functionals():
        assert expected == got, name


def test_intersection_contains_distinguished_vectors():
    inter = intersect(s_geo(), s_ito())
    assert len(inter) == 2
    assert contains(inter, _coords(tau_star()))
    assert contains(inter, _coords(tau_c()))
    both = subspace_sum(s_geo(), s_ito())
    assert len(both) == 32


def test_geo_kernel_members_roundtrip():
    # elements reconstructed from kernel coordinates are killed by the map
    for vec in s_geo()[:5]:
        assert phi_hat_geo(from_coords(vec)) == LinComb()


def test_ito_fixed_space_members():
    for vec in s_ito()[:5]:
        x = from_coords(vec)
        assert p_ito(x) == x


def test_nice_annihilates_functionals():
    funcs = nice_functionals()
    assert len(funcs) == 3
    for vec in s_nice()[:8]:
        x = from_coords(vec)
        for f in funcs:
            assert inner(LinComb.of(f), x) == 0
