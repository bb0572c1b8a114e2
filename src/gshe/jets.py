"""Truncated multivariate Taylor jets with exact rational coefficients.

``Jet`` is a scalar jet at a base point (coordinates are displacements, so
"the value at the point" is the order-zero coefficient).  It is stored
densely: integer numerators over one positive common denominator, in a
graded monomial order shared by every jet order, so the monomials of degree
<= r are a prefix of the list and truncation is a slice.  Products run over
cached index tables; every result divides out the gcd of its denominator and
numerators, which keeps the representation canonical.  One kernel, ``_dot``,
takes every product: a sum of products is added up in one pass over the
table into one numerator list and normalised once, so a contraction sums
each output component in one pass.  ``TensorJet`` carries
a (u, l)-indexed family of jets and realises the tensor operations mirroring
the graph side: slot permutation, product, trace of the last upper/lower
pair, derivation prepending a lower slot.  Every component of a tensor jet
has exactly the tensor's order (the constructor cuts one above it and
rejects one below it), so ``==`` compares tensors exactly and a sum is
taken at the lesser order.  The valuation maps noise generators to
vector-field jets and the Christoffel generator to twice the
Christoffel jet, evaluates each graph by contraction (each distinct rooted
subtree once per valuation and order), and extends linearly:
a paired symbol is the sum over its labellings, each evaluated as it comes
(nothing is merged or canonicalised first), added into one tensor jet.  It
works out the result's order first and evaluates every graph at that order,
so no coefficient above it is computed.
The oracles the valuation is checked against (curvature, counterterms,
Levi-Civita) use two primitives of their own: ``contract`` (an einsum that
sums each output component with one ``_dot``) and ``covariant_derivative``
(``derive`` plus one ``contract`` term per slot).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .algebra import decompose, invert_perm
from .graphs import DegreeError, XGraph
from .subspaces import rref
from .symbols import GAMMA, GPAIR, NOISE, iota_expand


def _multi_indices(d, order):
    """Monomials of total degree <= order, graded by degree."""
    if d == 0:
        yield ()
        return
    for total in range(order + 1):
        for cuts in itertools.combinations(range(total + d - 1), d - 1):
            prev = -1
            idx = []
            for c in cuts:
                idx.append(c - prev - 1)
                prev = c
            idx.append(total + d - 2 - prev)
            yield tuple(idx)


@lru_cache(maxsize=None)
def _monomials(d, order):
    return tuple(_multi_indices(d, order))


@lru_cache(maxsize=None)
def _positions(d, order):
    return {m: i for i, m in enumerate(_monomials(d, order))}


@lru_cache(maxsize=None)
def _mul_table(d, order):
    """Row i lists the (j, k) with monomial i + monomial j = monomial k.

    The layout is graded, so for monomial i of degree s the partners j are
    exactly the first ``len(_monomials(d, order - s))`` positions.
    """
    monos, pos = _monomials(d, order), _positions(d, order)
    return tuple(
        tuple((j, pos[tuple(x + y for x, y in zip(a, b))])
              for j, b in enumerate(_monomials(d, order - sum(a))))
        for a in monos)


@lru_cache(maxsize=None)
def _partial_table(d, order, k):
    """Per monomial m of degree <= order: (position of m + e_k, m[k] + 1)."""
    pos = _positions(d, order + 1)
    out = []
    for m in _monomials(d, order):
        up = list(m)
        up[k] += 1
        out.append((pos[tuple(up)], up[k]))
    return tuple(out)


def _jet(d, order, nums, den):
    """A Jet from dense numerators over ``den`` > 0, in lowest terms."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    j = object.__new__(Jet)
    j.d, j.order, j.nums, j.den = d, order, nums, den
    return j


def _dot(d, order, pairs):
    """The Jet sum of a * b over the jet pairs (a, b), at ``order``.

    One pass over ``_mul_table``: every product is added into one numerator
    list over the lcm of the pairs' denominators, normalised once.  Both
    jets of each pair have order >= ``order``.
    """
    dens = [a.den * b.den for a, b in pairs]
    den = lcm(*dens)
    table = _mul_table(d, order)
    out = [0] * len(table)
    for (a, b), pd in zip(pairs, dens):
        scale, b = den // pd, b.nums
        for x, row in zip(a.nums, table):
            if x:
                x *= scale
                for j, k in row:
                    out[k] += x * b[j]
    return _jet(d, order, out, den)


class Jet:
    """Scalar jet: coefficients of the monomials of total degree <= order.

    ``nums[i] / den`` is the coefficient of ``_monomials(d, order)[i]``;
    ``gcd(den, *nums) == 1``, so equal jets have equal fields.
    """

    __slots__ = ("d", "order", "nums", "den")

    def __init__(self, d, order, coeffs=None):
        self.d = d
        self.order = order
        self.nums = [0] * len(_monomials(d, order))
        self.den = 1
        if not coeffs:
            return
        kept = {}
        for k, v in coeffs.items():
            k = tuple(k)
            if len(k) != d or any(x < 0 for x in k):
                raise ValueError(f"bad multi-index {k!r} for d={d}")
            v = Fraction(v)
            if v and sum(k) <= order:
                kept[k] = v
        if kept:
            pos = _positions(d, order)
            self.den = lcm(*(v.denominator for v in kept.values()))
            for k, v in kept.items():
                self.nums[pos[k]] = v.numerator * (self.den // v.denominator)

    @classmethod
    def constant(cls, d, order, value):
        return cls(d, order, {tuple([0] * d): Fraction(value)})

    @classmethod
    def coordinate(cls, d, order, k):
        idx = [0] * d
        idx[k] = 1
        return cls(d, order, {tuple(idx): Fraction(1)})

    @property
    def coeffs(self):
        """Read-only view: {multi_index: Fraction} of the nonzero terms."""
        monos, den = _monomials(self.d, self.order), self.den
        return {m: Fraction(x, den) for m, x in zip(monos, self.nums) if x}

    def value(self):
        """The order-zero coefficient: the value at the base point."""
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    def __add__(self, other):
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if da == db:
            nums = [x + y for x, y in zip(a, b)]
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            nums = [x * sa + y * sb for x, y in zip(a, b)]
            da *= sa
        return _jet(self.d, min(self.order, other.order), nums, da)

    def __sub__(self, other):
        return self + -other

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        p = s.numerator
        return _jet(self.d, self.order, [x * p for x in self.nums],
                    self.den * s.denominator)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.__rmul__(other)
        return _dot(self.d, min(self.order, other.order), [(self, other)])

    def __neg__(self):
        return _jet(self.d, self.order, [-x for x in self.nums], self.den)

    def partial(self, k):
        """Derivative in direction k; the effective order drops by one."""
        a, order = self.nums, self.order - 1
        return _jet(self.d, order,
                    [a[i] * f for i, f in _partial_table(self.d, order, k)],
                    self.den)

    def truncate(self, order):
        if order == self.order:
            return self
        n = len(_monomials(self.d, order))
        nums = self.nums[:n]
        nums += [0] * (n - len(nums))
        return _jet(self.d, order, nums, self.den)

    def _without_constant(self):
        """The jet minus its value at the base point."""
        nums = self.nums[:]
        if nums:
            nums[0] = 0
        return _jet(self.d, self.order, nums, self.den)

    def __eq__(self, other):
        if not isinstance(other, Jet) or self.d != other.d \
                or self.den != other.den:
            return False
        a, b = self.nums, other.nums
        if len(a) > len(b):
            a, b = b, a
        return a == b[:len(a)] and not any(b[len(a):])

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        terms = sum(1 for x in self.nums if x)
        return f"Jet(d={self.d}, o={self.order}, {terms} terms)"


def zero_jet(d, order):
    return Jet(d, order, {})


def jet_inv_sqrt(j: Jet) -> Jet:
    """(1 + u)^(-1/2) for j = 1 + u with u of positive valuation."""
    if j.value() != 1:
        raise ValueError("jet_inv_sqrt needs constant term exactly 1")
    u = j._without_constant()
    out = Jet.constant(j.d, j.order, 1)
    term = Jet.constant(j.d, j.order, 1)
    coef = Fraction(1)
    for k in range(1, j.order + 1):
        coef *= Fraction(-(2 * k - 1), 2 * k)
        term = term * u
        if not term:
            break
        out = out + coef * term
    return out


def matrix_inverse(mat):
    """Inverse of a square matrix of jets with invertible constant term."""
    n = len(mat)
    d, order = mat[0][0].d, mat[0][0].order
    const = [[mat[i][j].value() for j in range(n)] for i in range(n)]
    inv0 = _rational_matrix_inverse(const)
    # X = inv0 * sum_k (-(A - A0) inv0)^k ; the deviation has valuation >= 1.
    deviation = [[mat[i][j]._without_constant() for j in range(n)]
                 for i in range(n)]
    b0 = [[Jet.constant(d, order, inv0[i][j]) for j in range(n)] for i in range(n)]
    term = b0
    out = [row[:] for row in b0]
    for _ in range(order):
        m1 = _mat_mul(deviation, term)
        term = _mat_mul(b0, m1)
        term = [[-1 * term[i][j] for j in range(n)] for i in range(n)]
        if not any(term[i][j] for i in range(n) for j in range(n)):
            break
        out = [[out[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    return out


class InversionError(ValueError):
    pass


def _rational_matrix_inverse(mat):
    """Exact inverse of a square rational matrix: ``rref`` of [A | I]."""
    n = len(mat)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise InversionError("singular constant term")
    return [[Fraction(x, row[i]) for x in row[n:]]
            for i, row in enumerate(rows)]


def _mat_mul(a, b):
    """The product of two square matrices of jets, each entry one ``_dot``."""
    n, d = len(a), a[0][0].d
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            pairs = [(a[i][k], b[k][j]) for k in range(n)]
            row.append(_dot(d, min(min(x.order, y.order) for x, y in pairs),
                            pairs))
        out.append(row)
    return out


def _accumulate(out, key, j):
    """out[key] += j, where a missing entry is zero."""
    s = out.get(key)
    out[key] = j if s is None else s + j


class TensorJet:
    """A (u, l)-graded array of jets; keys are (lower..., upper...) tuples.

    Every stored component has exactly the tensor's ``order`` and is
    nonzero: the constructor cuts a component above the order and drops one
    that is zero after the cut.  A component below the order is an error,
    since its missing coefficients are not known to be zero.
    """

    __slots__ = ("u", "l", "d", "order", "comps")

    def __init__(self, u, l, d, order, comps=None):
        self.u, self.l, self.d, self.order = u, l, d, order
        self.comps = {}
        if comps:
            for k, j in comps.items():
                if j.order < order:
                    raise ValueError(f"component {tuple(k)!r} has order "
                                     f"{j.order} < {order}")
                j = j.truncate(order)
                if j:
                    self.comps[tuple(k)] = j

    @property
    def degree(self):
        return (self.u, self.l)

    def comp(self, key):
        j = self.comps.get(tuple(key))
        return zero_jet(self.d, self.order) if j is None else j

    def keys(self):
        return itertools.product(range(self.d), repeat=self.l + self.u)

    def __add__(self, other):
        """The sum at the lesser order."""
        if (self.u, self.l) != (other.u, other.l):
            raise DegreeError("tensor degrees differ")
        out = {}
        for k, j in itertools.chain(self.comps.items(), other.comps.items()):
            _accumulate(out, k, j)
        return TensorJet(self.u, self.l, self.d, min(self.order, other.order),
                         out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return TensorJet(self.u, self.l, self.d, self.order,
                         {k: scalar * j for k, j in self.comps.items()})

    def __eq__(self, other):
        return (isinstance(other, TensorJet) and self.degree == other.degree
                and self.d == other.d and self.order == other.order
                and self.comps == other.comps)

    def __bool__(self):
        return bool(self.comps)

    def value(self, key):
        return self.comp(key).value()

    def truncate(self, order):
        """The tensor cut to ``order``, at most its own."""
        if order == self.order:
            return self
        return TensorJet(self.u, self.l, self.d, order, self.comps)

    def act(self, alpha):
        """Slot permutation: the new factor at position p is the old one at
        position alpha^-1(p), matching the action on graph externals."""
        pu, pl = alpha
        if len(pu) != self.u or len(pl) != self.l:
            raise DegreeError("permutation degree mismatch")
        # new key position p reads old key position src[p]
        src = ([i - 1 for i in invert_perm(pl)]
               + [self.l + i - 1 for i in invert_perm(pu)])
        return TensorJet(self.u, self.l, self.d, self.order,
                         {tuple([k[i] for i in src]): j
                          for k, j in self.comps.items()})

    def product(self, other):
        out = {}
        for k1, j1 in self.comps.items():
            l1, u1 = k1[:self.l], k1[self.l:]
            for k2, j2 in other.comps.items():
                out[l1 + k2[:other.l] + u1 + k2[other.l:]] = j1 * j2
        return TensorJet(self.u + other.u, self.l + other.l, self.d,
                         min(self.order, other.order), out)

    def trace(self):
        if self.u < 1 or self.l < 1:
            raise DegreeError("trace needs degree >= (1,1)")
        out = {}
        for k, j in self.comps.items():
            lows, ups = k[:self.l], k[self.l:]
            if lows[-1] != ups[-1]:
                continue
            _accumulate(out, lows[:-1] + ups[:-1], j)
        return TensorJet(self.u - 1, self.l - 1, self.d, self.order, out)

    def derive(self):
        return TensorJet(self.u, self.l + 1, self.d, self.order - 1,
                         {(b,) + k: j.partial(b)
                          for k, j in self.comps.items()
                          for b in range(self.d)})

    def contract_lower(self, pos, vec):
        """Contract lower slot ``pos`` (1-based) with a (1,0) tensor.

        The products are grouped by output key, and each group is summed by
        one ``_dot`` at the lesser of the two orders.
        """
        if vec.degree != (1, 0):
            raise DegreeError("contract_lower takes a vector")
        groups = {}
        for k, j in self.comps.items():
            val = vec.comps.get((k[pos - 1],))
            if val is not None:
                groups.setdefault(k[:pos - 1] + k[pos:], []).append((j, val))
        order = min(self.order, vec.order)
        return TensorJet(self.u, self.l - 1, self.d, order,
                         {k: _dot(self.d, order, pairs)
                          for k, pairs in groups.items()})

    def __repr__(self):
        return f"TensorJet(({self.u},{self.l}), d={self.d}, o={self.order})"


def vector_jet(d, order, jets) -> TensorJet:
    return TensorJet(1, 0, d, order, {(a,): j for a, j in enumerate(jets)})


# -- the valuation -------------------------------------------------------------

class Valuation:
    """Morphism data: jets for the Christoffel generator and noise fields.

    ``gamma`` must be symmetric in its two lower slots, as the Christoffel
    generator's slot symmetry declares: isomorphic labelled graphs then get
    equal values, so evaluating every labelling of a paired symbol gives
    the same jets as evaluating the merged canonical graphs.

    A call works out the result's order R, the least order of the labelled
    graphs (``_plan``), before it evaluates anything, and then evaluates
    every graph at R: each generator is cut to R plus its star count before
    it is derived, so no coefficient above R is made, and every component
    of the result has order R.

    Rooted trees share their subtrees: each distinct labelled subtree is
    contracted once per ``Valuation`` and order, and its (1,0) tensor jet is
    kept in a memo under the key ``(type name, order, sorted((slot, child
    key), ...))``, each child key interned to a small index.  The derivative
    count is the number of children less the type's in-arity, so it is in
    the key.  Native slots keep their slot order; the star children (slot 0)
    are ordered by their keys, not by vertex index.  That is exact: a
    k-times derived generator is symmetric in its star slots, because
    partials commute on exact jets.  Like the generator cache, the memo
    assumes that ``gamma`` and ``sigmas`` do not change after construction.
    """

    def __init__(self, gamma: TensorJet, sigmas):
        self.gamma = gamma
        self.sigmas = list(sigmas)
        self.d = gamma.d
        self.order = gamma.order
        self._generators = {}
        # the subtree memo: key -> index, index -> (1,0) tensor jet
        self._subtree_ids = {}
        self._subtree_values = []

    def generator_tensor(self, name, k, order):
        """The jet of generator ``name`` derived k times, at ``order``.

        The generator is cut to order + k before it is derived.  Cached per
        (name, k, order); the cache relies on ``gamma`` and ``sigmas``
        staying unchanged after construction.
        """
        key = (name, k, order)
        tens = self._generators.get(key)
        if tens is None:
            tens = (self._generator(name, order) if k == 0
                    else self.generator_tensor(name, k - 1, order + 1).derive())
            self._generators[key] = tens
        return tens

    def _generator(self, name, order):
        """The jet of generator ``name`` cut to ``order``."""
        if name == GAMMA.name:
            return 2 * self.gamma.truncate(order)
        if name == GPAIR.name:
            return inverse_metric([s.truncate(order) for s in self.sigmas])
        return self._noise(name).truncate(order)

    def _jet_order(self, name):
        """The order of the data behind generator ``name``; a plain noise,
        which stands for each of its labels, takes the least noise order."""
        if name == GAMMA.name:
            return self.gamma.order
        if name in (GPAIR.name, NOISE.name):
            return min(s.order for s in self.sigmas)
        return self._noise(name).order

    def _noise(self, name):
        if name == NOISE.name:
            raise ValueError("plain noise needs a label; apply iota first")
        if name.startswith("Xi"):
            return self.sigmas[int(name[2:]) - 1]
        raise ValueError(f"no jet for generator {name!r}")

    def _plan(self, g):
        """(whether g takes the tree path, the order of g's value).

        The tree path takes the rooted trees of one-output vertices.  The
        order is the least, over g's vertices, of the generator's jet order
        less the vertex's star count, and off the tree path at most
        ``self.order``.  A paired g gets the least order of its labellings,
        which share its wiring and take every noise label at every pair.
        """
        tree = (g.u == 1 and g.l == 0 and all(t.out_arity == 1 for t in g.types)
                and not g.has_directed_cycle())
        stars = [0] * len(g.types)
        for dst in g.wiring.values():
            if dst[1] == 0:
                stars[dst[0]] += 1
        order = min((self._jet_order(t.name) - s
                     for t, s in zip(g.types, stars)), default=self.order)
        return tree, order if tree else min(order, self.order)

    def evaluate_graph(self, g: XGraph) -> TensorJet:
        """Evaluate one labelled graph at its own order."""
        if g.pairing:
            raise ValueError("evaluate_graph takes labelled (unpaired) graphs")
        return self._evaluate(g, *self._plan(g))

    def _evaluate(self, g, tree, order):
        """g's value at ``order``, at most its own order; rooted trees use
        recursive contraction."""
        if tree:
            return self._evaluate_tree(g, order)
        return self._evaluate_decompose(g, order)

    def _evaluate_tree(self, g: XGraph, order) -> TensorJet:
        # Every vertex has one output, so one parent: kids[v] lists the
        # (slot, child) pairs of v's inputs.
        kids = [[] for _ in g.types]
        for (v, _), dst in g.wiring.items():
            if dst[0] == "u":
                root = v
            else:
                kids[dst[0]].append((dst[1], v))
        return self._subtree_values[self._subtree_index(g, kids, root, order)]

    def _subtree_index(self, g, kids, v, order):
        """The memo index of the subtree rooted at v, valued on a miss."""
        t = g.types[v]
        slots = []
        for s, w in kids[v]:
            slots.append((s, self._subtree_index(g, kids, w, order)))
        # (slot, child index), star slot 0 first; the stars in index order
        slots = tuple(sorted(slots))
        key = (t.name, order, slots)
        i = self._subtree_ids.get(key)
        if i is None:
            tens = self.generator_tensor(t.name, len(slots) - t.in_arity,
                                         order)
            # lower slots: [stars..., natives...]; contract from the front
            for _, c in slots:
                tens = tens.contract_lower(1, self._subtree_values[c])
            i = self._subtree_ids[key] = len(self._subtree_values)
            self._subtree_values.append(tens)
        return i

    def _evaluate_decompose(self, g: XGraph, order) -> TensorJet:
        m, alpha, parts = decompose(g)
        prod = TensorJet(0, 0, self.d, order,
                         {(): Jet.constant(self.d, order, 1)})
        for dcount, t in parts:
            prod = prod.product(self.generator_tensor(t.name, dcount, order))
        out = prod.act(alpha)
        for _ in range(m):
            out = out.trace()
        return out

    def __call__(self, a) -> TensorJet:
        """The linear extension of ``evaluate_graph`` to a LinComb or a graph.

        A paired graph stands for its labellings (``iota_expand``).  The
        result's order R, the least order of the labelled graphs, is known
        before any of them is evaluated, and each is evaluated at R as it
        comes.  The degree is that of the first term; no terms give the
        zero tensor of degree (0, 0) and order ``self.order``.
        """
        terms = [(a, 1)] if isinstance(a, XGraph) else list(a.terms.items())
        u, l = terms[0][0].degree if terms else (0, 0)
        plans = [self._plan(g) for g, _ in terms]
        order = min((o for _, o in plans), default=self.order)
        m = len(self.sigmas)
        comps = {}
        for (g, c), (tree, _) in zip(terms, plans):
            for h, k in iota_expand(g, m) if g.pairing else [(g, 1)]:
                for key, j in self._evaluate(h, tree, order).comps.items():
                    _accumulate(comps, key, (c * k) * j)
        return TensorJet(u, l, self.d, order, comps)


# -- differential geometry oracles ---------------------------------------------

def random_jet(rng, d, order):
    coeffs = {}
    for idx in _multi_indices(d, order):
        coeffs[idx] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return Jet(d, order, coeffs)


def random_vector_field(rng, d, order):
    return vector_jet(d, order, [random_jet(rng, d, order)
                                 for _ in range(d)])


def random_gamma(rng, d, order):
    """A (1,2) tensor jet symmetric in its two lower slots."""
    comps = {}
    for b in range(d):
        for c in range(b, d):
            for a in range(d):
                j = random_jet(rng, d, order)
                comps[(b, c, a)] = j
                comps[(c, b, a)] = j
    return TensorJet(1, 2, d, order, comps)


def inverse_metric(sigmas) -> TensorJet:
    """g^{ab} = sum_i sigma_i^a sigma_i^b as a (2,0) tensor jet."""
    out = sigmas[0].product(sigmas[0])
    for s in sigmas[1:]:
        out = out + s.product(s)
    return out


def contract(spec, *tensors) -> TensorJet:
    """Einsum over tensor-jet keys, e.g. ``contract("bza,cez->bcea", G, G)``.

    Each input's letters name its key slots, (lower..., upper...); a letter
    repeated anywhere is summed over, one that occurs once is free and keeps
    its slot's kind.  The output lists the free letters, lower ones first.
    Absent components are skipped; the order is the least input order.  The
    products are grouped by output key and each group is summed by one
    ``_dot``, whose pairs are (the product of the other inputs' components,
    the last input's component); a single input is paired with 1.
    """
    ins, out = spec.split("->")
    ins = ins.split(",")
    if len(ins) != len(tensors) or not set(out) <= set("".join(ins)):
        raise ValueError(f"{spec!r} does not fit {len(tensors)} tensors")
    lower = set()
    for letters, t in zip(ins, tensors):
        if len(letters) != t.l + t.u:
            raise DegreeError(f"{letters!r} does not fit {t!r}")
        lower.update(letters[:t.l])
    n_low = sum(x in lower for x in out)
    if any(x in lower for x in out[n_low:]):
        raise DegreeError(f"{spec!r}: output lower slots must come first")
    d, order = tensors[0].d, min(t.order for t in tensors)
    first = Jet.constant(d, order, 1) if len(tensors) == 1 else None
    groups = {}
    for key, j, tj in _einsum(ins, out, tensors, first):
        groups.setdefault(key, []).append((j, tj))
    return TensorJet(len(out) - n_low, n_low, d, order,
                     {k: _dot(d, order, pairs) for k, pairs in groups.items()})


def _einsum(ins, out, tensors, first):
    """Yield (output key, j, last input's component) for each choice of one
    component per input that agrees on every shared letter, where j is the
    product of the other inputs' components, or ``first`` if there are none.

    Components are grouped by the letters earlier inputs bind and walked
    depth first, so no partial sum is built.  Keys are ``tuple([...])``:
    the free list recycles exact-size tuples, not ``tuple(<generator>)``.
    """
    plan, bound = [], set()
    for letters, t in zip(ins, tensors):
        slot = {x: letters.index(x) for x in letters}  # first slot per letter
        shared = [x for x in slot if x in bound]
        groups = {}
        for k, tj in t.comps.items():
            if all(v == k[slot[x]] for x, v in zip(letters, k)):
                groups.setdefault(tuple([k[slot[x]] for x in shared]),
                                  []).append((k, tj))
        plan.append((shared, [(x, p) for x, p in slot.items()
                              if x not in bound], groups))
        bound.update(slot)
    return _walk(out, plan, {}, first)


def _walk(out, plan, values, j):
    """The choices below the partial choice ``values`` with product j."""
    shared, new, groups = plan[0]
    last = len(plan) == 1
    for k, tj in groups.get(tuple([values[x] for x in shared]), ()):
        for x, p in new:
            values[x] = k[p]
        if last:
            yield tuple([values[x] for x in out]), j, tj
        else:
            pj = tj if j is None else j * tj
            if pj:
                yield from _walk(out, plan[1:], values, pj)


def covariant_derivative(gamma: TensorJet, t: TensorJet) -> TensorJet:
    """nabla t, the new lower slot first as ``derive`` puts it.

    ``derive`` plus one ``contract`` term per slot of t: +Gamma^a_{zn}
    t^{..n..} for an upper slot a, -Gamma^n_{zb} t_{..n..} for a lower slot
    b.  Gamma is cut to the result's order first, and t to one above it, so
    every term is computed at that order.
    """
    order = min(t.order - 1, gamma.order)
    gamma = gamma.truncate(order)
    minus = -1 * gamma
    out = t.truncate(order + 1).derive()
    slots = "abcdefghijklmnopqrstuvwxy"[:t.l + t.u]
    for p, x in enumerate(slots):
        head, g = (f"Z{x}z", minus) if p < t.l else (f"Zz{x}", gamma)
        out = out + contract(f"{head},{slots[:p]}z{slots[p + 1:]}->Z{slots}",
                             g, t)
    return out


def levi_civita(sigmas) -> TensorJet:
    """Christoffel jets of the Levi-Civita connection of sum sigma sigma^T.

    Gamma^a_{bc} = 1/2 g^{ae} (d_b g_{ec} + d_c g_{eb} - d_e g_{bc}).
    """
    ginv = inverse_metric(sigmas)
    d, order = ginv.d, ginv.order
    gmat = matrix_inverse([[ginv.comp((a, b)) for b in range(d)]
                           for a in range(d)])
    dg = TensorJet(0, 2, d, order, {(e, c): gmat[e][c] for e in range(d)
                                    for c in range(d)}).derive()
    return Fraction(1, 2) * (contract("bec,ae->bca", dg, ginv)
                             + contract("ceb,ae->bca", dg, ginv)
                             - contract("ebc,ae->bca", dg, ginv))


def riemann(gamma: TensorJet) -> TensorJet:
    """Curvature (1,3) jet with slots in X, Y, Z order.

    comps[(b, c, e, a)] is the a-component of R(e_b, e_c) e_e =
    (nabla_b nabla_c - nabla_c nabla_b) e_e, antisymmetric in (b, c): it is
    A - A with b and c swapped, where A = d_b G^a_ce + G^a_bz G^z_ce.
    """
    cut = gamma.truncate(gamma.order - 1)
    a = gamma.derive() + contract("bza,cez->bcea", cut, cut)
    return a - a.act(((1,), (2, 1, 3)))


def curvature_counterterm(gamma: TensorJet, sigmas) -> TensorJet:
    """-R^a_{b,c,e} g^{bz} (nabla_z g)^{ce}: the expected value of tau_star.

    The X slot contracts against the inverse metric, the (Y, Z) pair against
    the covariant derivative of the inverse metric.
    """
    ginv = inverse_metric(sigmas)
    return -1 * contract("bcea,bz,zce->a", riemann(gamma), ginv,
                         covariant_derivative(gamma, ginv))


def gradient_counterterm(gamma: TensorJet, sigmas) -> TensorJet:
    """(nabla_z R)^a_{b,c,e} g^{zc} g^{be}: the expected value of tau_c."""
    ginv = inverse_metric(sigmas)
    return contract("zbcea,zc,be->a",
                    covariant_derivative(gamma, riemann(gamma)), ginv, ginv)


def scalar_curvature_gradient(gamma: TensorJet, sigmas) -> TensorJet:
    """g^{az} d_z (g^{ce} Ric_{ce}) with Ric_{ce} = R^a_{a,c,e}."""
    ginv = inverse_metric(sigmas)
    scal = contract("acea,ce->", riemann(gamma), ginv)
    return contract("z,az->a", scal.derive(), ginv)


# -- sphere embedding ----------------------------------------------------------

def sphere_frame(p, order=5):
    """Jets of the closest-point projection frame at a rational sphere point.

    Returns (sigmas, gamma): sigma_i = d_i pi and the ambient connection
    coefficients Gamma^a_{bc} = -d2_{bc} pi^a for pi(y) = y/|y|.
    """
    p = [Fraction(x) for x in p]
    d = len(p)
    if sum(x * x for x in p) != 1:
        raise ValueError("base point must lie on the unit sphere exactly")
    # |p + x|^2 = 1 + u with u = 2 p.x + |x|^2
    r2 = Jet.constant(d, order + 2, 1)
    coords = [Jet.coordinate(d, order + 2, k) for k in range(d)]
    for k in range(d):
        r2 = r2 + 2 * p[k] * coords[k] + coords[k] * coords[k]
    invnorm = jet_inv_sqrt(r2)
    pi = [(Jet.constant(d, order + 2, p[k]) + coords[k]) * invnorm
          for k in range(d)]
    sigmas = []
    for i in range(d):
        sigmas.append(vector_jet(d, order + 1,
                                 [pi[a].partial(i) for a in range(d)]))
    comps = {}
    for b in range(d):
        for c in range(d):
            for a in range(d):
                comps[(b, c, a)] = -1 * pi[a].partial(b).partial(c)
    gamma = TensorJet(1, 2, d, order, comps)
    return sigmas, gamma
