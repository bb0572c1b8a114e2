"""Exact rational linear algebra over canonical-graph bases.

Matrices are lists of rows of ints or Fractions.  Elimination clears each
row to integers once, on entry, and then stays on integers: a row is
eliminated by cross-multiplying it with the pivot row and then dividing out
the gcd of its entries.  Every result (``rref`` rows, ``kernel`` vectors,
``row_space``, ``intersect`` and ``subspace_sum`` bases) is a list of
primitive integer rows with a positive pivot, a canonical form of the span.
On top of this the module computes the geometric, Ito and nice subspaces of
the 54-dimensional symbol space and checks every printed dimension.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .algebra import LinComb, inner
from .morphisms import (A1, A2, B1, B2, covariant_symbols, curvature, nabla,
                         p_ito, pair_ab, phi_hat_geo, tau_c, tau_star)
from .symbols import GAMMA, NOISE, basis_positions, flat_symbols, full_basis


# -- fraction-free elimination -------------------------------------------------

def rref(mat):
    """Reduced row echelon form (exact); returns (rows, pivot columns).

    ``mat`` holds rows of ints and/or Fractions; each row is scaled to
    integers by the lcm of its denominators.  A row is cleared against the
    pivot row by cross-multiplication (pivot * row - entry * pivot row) and
    then divided by the gcd of its entries.  The reduced rows are returned
    as primitive integer rows with a positive pivot, which is canonical:
    equal row spaces give equal output.
    """
    if not mat:
        return [], []
    rows = [_integer_row(row) for row in mat]
    n, m = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n):
            e = rows[i][c]
            if i == r or e == 0:
                continue
            row = [p * x - e * y for x, y in zip(rows[i], prow)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == n:
            break
    out = []
    for row, c in zip(rows, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        out.append([x // g for x in row])
    return out, pivots


def _integer_row(row):
    """``row`` (ints and/or Fractions) times the lcm of its denominators:
    the same rank, the same zeros, integer arithmetic."""
    denom = lcm(*(x.denominator for x in row))
    return [x.numerator * (denom // x.denominator) for x in row]


def rank(mat):
    return len(rref(mat)[0])


def kernel(mat):
    """Basis of the right kernel, as primitive integer vectors."""
    if not mat:
        return []
    m = len(mat[0])
    rows, pivots = rref(mat)
    free = [c for c in range(m) if c not in pivots]
    scale = lcm(*(row[c] for row, c in zip(rows, pivots)))
    basis = []
    for f in free:
        vec = [0] * m
        vec[f] = scale
        for row, c in zip(rows, pivots):
            vec[c] = -row[f] * (scale // row[c])
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def row_space(vectors):
    """Canonical basis (``rref`` rows) of the span of the given vectors."""
    rows, _ = rref(vectors)
    return rows


def intersect(u_vectors, v_vectors):
    """Basis of span(u) intersect span(v) via kernel of the stacked matrix."""
    if not u_vectors or not v_vectors:
        return []
    k = len(u_vectors)
    cols = list(u_vectors) + [[-x for x in v] for v in v_vectors]
    combos = kernel(list(zip(*cols)))
    out = [[sum(a * x for a, x in zip(combo[:k], col))
            for col in zip(*u_vectors)] for combo in combos]
    return row_space([v for v in out if any(v)])


def subspace_sum(u_vectors, v_vectors):
    return row_space(list(u_vectors) + list(v_vectors))


def contains(space_vectors, vec):
    return rank(list(space_vectors) + [vec]) == rank(list(space_vectors))


# -- the named subspaces -------------------------------------------------------

def _coords(a: LinComb):
    index = basis_positions()
    vec = [Fraction(0)] * len(index)
    for g, c in a.terms.items():
        vec[index[g.canonical_key()]] = c
    return vec


def from_coords(vec) -> LinComb:
    return LinComb(zip(full_basis(), vec))


def _pairing_row(comb: LinComb):
    """The functional <comb, .> as a row over the symbol basis."""
    return [inner(comb, LinComb.of(g)) for g in full_basis()]


def _symbol_kernel(images):
    """Canonical basis of the kernel of the map sending symbol j to images[j].

    The matrix has one row per graph occurring in the images, in
    canonical-key order; a zero map has the single zero row, so its kernel
    is the whole symbol span.
    """
    rows = {}
    for j, img in enumerate(images):
        for g, c in img.terms.items():
            rows.setdefault(g.canonical_key(), [0] * len(images))[j] = c
    mat = [rows[key] for key in sorted(rows)] or [[0] * len(images)]
    return tuple(tuple(v) for v in row_space(kernel(mat)))


@lru_cache(maxsize=None)
def s_geo():
    """Kernel of phi_hat_geo on the 54-dim symbol span (dimension 15)."""
    return _symbol_kernel([phi_hat_geo(LinComb.of(g)) for g in full_basis()])


@lru_cache(maxsize=None)
def s_ito():
    """Fixed space of the Ito projection on the symbol span (dimension 19)."""
    return _symbol_kernel([p_ito(LinComb.of(g)) - LinComb.of(g)
                           for g in full_basis()])


@lru_cache(maxsize=None)
def nice_functionals():
    """The three pairing functionals annihilating the nice subspace.

    These are the pairings of the only two symbols containing neither a
    once-derived noise factor nor an underived Christoffel factor: the
    all-noise star (one pairing class) and the Christoffel root with two
    thick and two thin noise children (two pairing classes).
    """
    out = []
    for s in full_basis():
        ok = True
        for v, t in enumerate(s.types):
            stars = s.star_degree(v)
            if t.name == NOISE.name and stars == 1:
                ok = False
            if t.name == GAMMA.name and stars == 0:
                ok = False
        if ok:
            out.append(s)
    return tuple(out)


@lru_cache(maxsize=None)
def s_nice():
    """Orthogonal complement of the three pairing functionals (dimension 51)."""
    mat = [_pairing_row(LinComb.of(f)) for f in nice_functionals()]
    return tuple(tuple(v) for v in row_space(kernel(mat)))


@lru_cache(maxsize=None)
def v_space():
    """Span of the 14 triple covariant derivative vectors."""
    vecs = [_coords(v) for v in covariant_symbols()[:14]]
    return tuple(tuple(v) for v in row_space(vecs))


def dimension_report():
    """Every checkable dimension claim, as (name, expected, got) rows."""
    geo, ito, nice = s_geo(), s_ito(), s_nice()
    both = subspace_sum(geo, ito)
    inter = intersect(geo, ito)
    geo_nice = intersect(geo, nice)
    ito_nice = intersect(ito, nice)
    nice_inter = intersect(geo_nice, ito_nice)
    v_nice = intersect(v_space(), nice)
    rows = [
        ("dim_S", 54, len(full_basis())),
        ("dim_S2", 2, sum(1 for s in full_basis()
                          if sum(t.name == "Xi" for t in s.types) == 2)),
        ("dim_S4", 52, sum(1 for s in full_basis()
                           if sum(t.name == "Xi" for t in s.types) == 4)),
        ("dim_S_geo", 15, len(geo)),
        ("dim_S_ito", 19, len(ito)),
        ("dim_S_geo_plus_S_ito", 32, len(both)),
        ("dim_S_geo_cap_S_ito", 2, len(inter)),
        ("tau_star_in_intersection", 1,
         int(contains(inter, _coords(tau_star())))),
        ("tau_c_in_intersection", 1, int(contains(inter, _coords(tau_c())))),
        ("dim_S_nice", 51, len(nice)),
        ("dim_S_geo_nice", 13, len(geo_nice)),
        ("dim_S_ito_nice_cap_S_geo_nice", 1, len(nice_inter)),
        ("nice_intersection_spanned_by_tau_star", 1,
         int(len(nice_inter) == 1 and contains(nice_inter, _coords(tau_star())))),
        ("dim_V_nice", 12, len(v_nice)),
        ("covariant_15_span_S_geo", 1,
         int(rank([_coords(v) for v in covariant_symbols()]) == len(geo)
             and all(contains(geo, _coords(v)) for v in covariant_symbols()))),
    ]
    return rows


def verify_functionals():
    """Orthogonality and independence claims; (claim, expected, got) rows."""
    geo, ito = s_geo(), s_ito()
    flats = flat_symbols()

    # Every functional row is cleared to integers first (``_integer_row``),
    # which keeps the zero tests and the rank and leaves the products below
    # to ints: the rows of ``geo`` and ``ito`` are integer already.

    # the star pairing annihilates the Ito space
    star = _nice_star_symbol()
    star_vec = _integer_row(_pairing_row(LinComb.of(star)))
    ito_perp = all(sum(c * v for c, v in zip(star_vec, w)) == 0 for w in ito)

    # (1/2) star - mixed - (1/2) same-slot pairing annihilates the geo space
    same, mixed = _gamma_root_pairings()
    combo = (Fraction(1, 2) * LinComb.of(star) - LinComb.of(mixed)
             - Fraction(1, 2) * LinComb.of(same))
    combo_vec = _integer_row(_pairing_row(combo))
    geo_perp = all(sum(c * v for c, v in zip(combo_vec, w)) == 0 for w in geo)

    # the flat pairings plus five curvature functionals have rank 15 over S_geo
    functionals = [_pairing_row(LinComb.of(s)) for s in flats]
    functionals += [_pairing_row(v) for v in _extra_geo_functionals()]
    gram = [[sum(c * v for c, v in zip(f, w)) for w in geo]
            for f in map(_integer_row, functionals)]
    rk = rank(gram)

    rows = [
        ("star_pairing_perp_S_ito", 1, int(ito_perp)),
        ("geo_orthogonal_combination", 1, int(geo_perp)),
        ("geo_functionals_rank", 15, rk),
    ]
    return rows


@lru_cache(maxsize=None)
def _nice_star_symbol():
    """The pairing class of the all-noise star (norm squared 2)."""
    for s in nice_functionals():
        if all(t.name == NOISE.name for t in s.types):
            return s
    raise RuntimeError("star pairing not found")


@lru_cache(maxsize=None)
def _gamma_root_pairings():
    """The two pairing classes of the Christoffel-rooted nice symbol.

    Returns (same_slot, mixed): the class pairing the thick children together
    (norm squared 4) and the mixed class (norm squared 2).
    """
    gamma_rooted = [s for s in nice_functionals()
                    if any(t.name == "Gamma" for t in s.types)]
    same = next(s for s in gamma_rooted if s.aut_count() == 4)
    mixed = next(s for s in gamma_rooted if s.aut_count() == 2)
    return same, mixed


def _extra_geo_functionals():
    """Five pairing functionals completing the flat ones to rank 15 on S_geo.

    Four single symbols pinned by their coefficients inside the two curvature
    expansions used in the dimension-count argument, plus the thick-thick
    pairing of the Christoffel-rooted nice symbol.  Their span agrees with
    the span of the five non-flat members of the printed functional list.
    """
    same, _ = _gamma_root_pairings()
    w_mixed = pair_ab(curvature(A1, nabla(B1, A2), B2))
    w_outer = pair_ab(curvature(A1, nabla(B1, B2), A2))
    half = Fraction(1, 2)
    eabisc1 = next(g for g, c in w_mixed.terms.items() if c == half)
    eac1 = next(g for g, c in w_mixed.terms.items() if c == -half)
    eac2 = next(g for g, c in w_outer.terms.items() if c == -half)
    # the pairing of the one-Christoffel tree seen by the covariant derivative
    # of a curvature vector but not by the curvature of a covariant derivative
    inner_cov = pair_ab(nabla(A1, curvature(B1, A2, B2)))
    outer_cov = pair_ab(nabla(curvature(A1, B1, B2), A2))
    seen = {g.canonical_key() for g in inner_cov.terms}
    ca2 = next(g for g in outer_cov.terms
               if g.canonical_key() not in seen and g.aut_count() == 2
               and sum(t.name == "Gamma" for t in g.types) == 1)
    return [LinComb.of(s) for s in (same, eabisc1, eac1, eac2, ca2)]
