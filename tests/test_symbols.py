import importlib.resources as resources

import pytest

from gshe.algebra import LinComb, inner
from gshe.graphs import XGraph, parse_graph
from gshe.symbols import (GAMMA, GENERATORS, NOISE, _trees,
                          enumerate_basis, flat_symbols, forget_labels,
                          full_basis, iota_expand, labeled_noise,
                          pairing_orbit_count, symmetry_factor,
                          unpaired_symmetry_factor)


def tree_shapes(n):
    """Canonical unpaired trees with n noises (single noise type)."""
    return sorted(_trees(n).terms, key=XGraph.canonical_key)


def test_basis_counts():
    assert len(enumerate_basis(2)) == 2
    assert len(enumerate_basis(4)) == 52
    assert len(full_basis()) == 54


def test_enumerate_rejects_bad_n():
    with pytest.raises(ValueError):
        enumerate_basis(3)


def test_tree_shape_counts():
    assert len(tree_shapes(2)) == 2
    # the four-noise row of the symbol table lists 23 entries
    assert len(tree_shapes(4)) == 23
    assert len(flat_symbols()) == 10


def test_symmetry_factor_examples():
    # S = 1 for the thin two-noise tree, 2 for the thick cherry
    twos = sorted(unpaired_symmetry_factor(s) for s in tree_shapes(2))
    assert twos == [1, 2]
    fours = sorted(unpaired_symmetry_factor(s) for s in tree_shapes(4))
    # the all-noise star has S = 6, the double-cherry S = 8
    assert fours.count(6) == 1 and fours.count(8) == 1
    assert max(fours) == 8


def test_saturation_and_degree_invariants():
    for s in full_basis():
        n = sum(1 for t in s.types if t.name == NOISE.name)
        assert n in (2, 4)
        thin = sum(1 for src, dst in s.wiring.items()
                   if isinstance(src[0], int) and dst[0] != "u"
                   and dst[1] == 0)
        thick = sum(1 for src, dst in s.wiring.items()
                    if isinstance(src[0], int) and dst[0] != "u"
                    and dst[1] >= 1)
        # every Christoffel vertex saturated, and the homogeneity
        # -(3/2) n + 2 e_thin + e_thick = 0 for n = 4, -1 for n = 2
        n_gamma = sum(1 for t in s.types if t.name == GAMMA.name)
        assert thick == 2 * n_gamma
        assert -3 * n + 2 * (2 * thin + thick) == (0 if n == 4 else -2)
        # rooted tree over the generators with a perfect noise pairing
        assert s.degree == (1, 0)
        assert not s.has_directed_cycle()
        assert {v for p in s.pairing for v in p} \
            == {v for v, t in enumerate(s.types) if t.name == NOISE.name}


def test_orbit_stabiliser_over_basis():
    for s in full_basis():
        assert pairing_orbit_count(s) * symmetry_factor(s) \
            == unpaired_symmetry_factor(s)


def test_paired_norm_examples():
    # |star pairing|^2 = 2; Christoffel-rooted nice symbol: 4 and 2
    from gshe.subspaces import _gamma_root_pairings, _nice_star_symbol

    assert _nice_star_symbol().aut_count() == 2
    same, mixed = _gamma_root_pairings()
    assert same.aut_count() == 4
    assert mixed.aut_count() == 2


def test_iota_expand_counts():
    basis = full_basis()
    two = next(s for s in basis
               if sum(t.name == NOISE.name for t in s.types) == 2)
    four = next(s for s in basis
                if sum(t.name == NOISE.name for t in s.types) == 4)
    assert len(LinComb(iota_expand(two, 1))) == 1
    expanded = LinComb(iota_expand(four, 2))
    total = sum(expanded.terms.values())
    assert total == 4  # 2^2 assignments before merging
    # forgetting labels and dividing by m^{n/2} returns the underlying tree
    bare = XGraph(four.u, four.l, four.types, four.wiring)
    back = forget_labels(LinComb(iota_expand(four, 3)))
    assert back == 9 * LinComb.of(bare)


def test_iota_requires_pairing():
    bare = XGraph(1, 0, (NOISE,), {(0, 1): ("u", 1)})
    with pytest.raises(Exception):
        iota_expand(bare, 2)


def test_parseval_bookkeeping():
    # <iota(s), iota(s)> with labels = m^{n/2} S(tau, P) summed over the
    # orbit: the label-blind pairing reproduces N(tau,P) S(tau,P) = S(tau).
    for s in full_basis()[:6]:
        n = sum(1 for t in s.types if t.name == NOISE.name)
        lab = LinComb(iota_expand(s, 1))
        bare = XGraph(s.u, s.l, tuple(labeled_noise(1) if t.name == NOISE.name
                                      else t for t in s.types), s.wiring)
        # with one label, iota gives the unpaired labelled tree once
        assert lab == LinComb.of(bare)
        assert inner(lab, lab) == unpaired_symmetry_factor(s)


def test_golden_basis_file():
    data = resources.files("gshe.data").joinpath("basis.txt").read_text()
    blocks = [b for b in data.split("\n\n") if b.strip()]
    assert len(blocks) == 54
    parsed = [parse_graph(b, GENERATORS) for b in blocks]
    keys = {g.canonical_key() for g in parsed}
    assert keys == {g.canonical_key() for g in full_basis()}
    assert len(keys) == 54


def test_covariant_symbols_independent():
    from gshe.subspaces import rank, _coords
    from gshe.morphisms import covariant_symbols

    vecs = [_coords(v) for v in covariant_symbols()]
    assert len(vecs) == 15
    assert rank(vecs) == 15
