"""Truncated multivariate Taylor jets with exact rational coefficients.

``Jet`` is a scalar jet at a base point (coordinates are displacements, so
"the value at the point" is the order-zero coefficient).  It is stored
densely: integer numerators over one positive common denominator, in a
graded monomial order shared by every jet order, so the monomials of degree
<= r are a prefix of the list and truncation is a slice.  Products run over
cached index tables; every result divides out the gcd of its denominator and
numerators, which keeps the representation canonical.  ``TensorJet`` carries
a (u, l)-indexed family of jets and realises the tensor operations mirroring
the graph side: slot permutation, product, trace of the last upper/lower
pair, derivation prepending a lower slot.  The valuation maps noise
generators to vector-field jets and the Christoffel generator to twice the
Christoffel jet, then evaluates graphs by recursive contraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .algebra import LinComb
from .graphs import DegreeError, ParseError, XGraph
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
        order = min(self.order, other.order)
        b = other.nums
        out = [0] * len(_monomials(self.d, order))
        for x, row in zip(self.nums, _mul_table(self.d, order)):
            if x:
                for j, k in row:
                    out[k] += x * b[j]
        return _jet(self.d, order, out, self.den * other.den)

    def __neg__(self):
        return _jet(self.d, self.order, [-x for x in self.nums], self.den)

    def partial(self, k):
        """Derivative in direction k; the effective order drops by one."""
        a, order = self.nums, self.order - 1
        return _jet(self.d, order,
                    [a[i] * f for i, f in _partial_table(self.d, order, k)],
                    self.den)

    def truncate(self, order):
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
    n = len(a)
    return [[_sum_jets([a[i][k] * b[k][j] for k in range(n)])
             for j in range(n)] for i in range(n)]


def _sum_jets(js):
    out = js[0]
    for j in js[1:]:
        out = out + j
    return out


def _accumulate(out, key, j, order):
    """out[key] += j, where a missing entry is the zero jet of ``order``."""
    s = out.get(key)
    if s is not None:
        out[key] = s + j
    elif j.order > order:
        out[key] = j.truncate(order)
    else:
        out[key] = j


class TensorJet:
    """A (u, l)-graded array of jets; keys are (lower..., upper...) tuples."""

    __slots__ = ("u", "l", "d", "order", "comps")

    def __init__(self, u, l, d, order, comps=None):
        self.u, self.l, self.d, self.order = u, l, d, order
        self.comps = {}
        if comps:
            for k, j in comps.items():
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
        if (self.u, self.l) != (other.u, other.l):
            raise DegreeError("tensor degrees differ")
        out = dict(self.comps)
        for k, j in other.comps.items():
            s = out.get(k)
            out[k] = j if s is None else s + j
        return TensorJet(self.u, self.l, self.d, min(self.order, other.order), out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return TensorJet(self.u, self.l, self.d, self.order,
                         {k: scalar * j for k, j in self.comps.items()})

    def __eq__(self, other):
        return (isinstance(other, TensorJet) and self.degree == other.degree
                and self.comps == other.comps)

    def __bool__(self):
        return bool(self.comps)

    def value(self, key):
        return self.comp(key).value()

    def act(self, alpha):
        """Slot permutation: the new factor at position p is the old one at
        position alpha^-1(p), matching the action on graph externals."""
        pu, pl = alpha
        if len(pu) != self.u or len(pl) != self.l:
            raise DegreeError("permutation degree mismatch")
        ipu = [0] * self.u
        for i, x in enumerate(pu):
            ipu[x - 1] = i
        ipl = [0] * self.l
        for i, x in enumerate(pl):
            ipl[x - 1] = i
        out = {}
        for k, j in self.comps.items():
            lows, ups = k[:self.l], k[self.l:]
            nk = (tuple(lows[ipl[i]] for i in range(self.l))
                  + tuple(ups[ipu[i]] for i in range(self.u)))
            _accumulate(out, nk, j, self.order)
        return TensorJet(self.u, self.l, self.d, self.order, out)

    def product(self, other):
        out = {}
        for k1, j1 in self.comps.items():
            l1, u1 = k1[:self.l], k1[self.l:]
            for k2, j2 in other.comps.items():
                l2, u2 = k2[:other.l], k2[other.l:]
                nk = l1 + l2 + u1 + u2
                j = j1 * j2
                if j:
                    _accumulate(out, nk, j, self.order)
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
            nk = lows[:-1] + ups[:-1]
            _accumulate(out, nk, j, self.order)
        return TensorJet(self.u - 1, self.l - 1, self.d, self.order, out)

    def derive(self):
        out = {}
        for k, j in self.comps.items():
            for b in range(self.d):
                dj = j.partial(b)
                if dj:
                    nk = (b,) + k
                    _accumulate(out, nk, dj, self.order)
        return TensorJet(self.u, self.l + 1, self.d, self.order - 1, out)

    def contract_lower(self, pos, vec):
        """Contract lower slot ``pos`` (1-based) with a (1,0) tensor."""
        if vec.degree != (1, 0):
            raise DegreeError("contract_lower takes a vector")
        out = {}
        for k, j in self.comps.items():
            lows, ups = k[:self.l], k[self.l:]
            idx = lows[pos - 1]
            val = vec.comps.get((idx,))
            if val is None:
                continue
            nk = lows[:pos - 1] + lows[pos:] + ups
            pj = j * val
            if pj:
                _accumulate(out, nk, pj, self.order)
        return TensorJet(self.u, self.l - 1, self.d, min(self.order, vec.order), out)

    def __repr__(self):
        return f"TensorJet(({self.u},{self.l}), d={self.d}, o={self.order})"


def vector_jet(d, order, jets) -> TensorJet:
    return TensorJet(1, 0, d, order, {(a,): j for a, j in enumerate(jets)})


def format_jet(j: Jet) -> str:
    """One ``(multi_index) = p/q`` line per coefficient, sorted."""
    lines = [f"jet d={j.d} order={j.order}"]
    coeffs = j.coeffs
    for idx in sorted(coeffs):
        lines.append(f"({','.join(str(k) for k in idx)}) = {coeffs[idx]}")
    return "\n".join(lines)


def parse_jet(text: str) -> Jet:
    """Inverse of ``format_jet``; errors carry the 1-based line number."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise ParseError(1, "missing 'jet d=<d> order=<order>' header")
    lineno, head = lines[0]
    try:
        word, *pairs = head.split()
        kv = dict(p.split("=") for p in pairs)
        if word != "jet" or set(kv) != {"d", "order"}:
            raise ValueError
        d, order = int(kv["d"]), int(kv["order"])
        if d < 1:
            raise ValueError
    except ValueError:
        raise ParseError(lineno,
                         "expected 'jet d=<d> order=<order>' header") from None
    coeffs = {}
    for lineno, ln in lines[1:]:
        left, eq, right = ln.partition("=")
        if not eq:
            raise ParseError(lineno, "expected '(<index>,...) = <rational>'")
        left, right = left.strip(), right.strip()
        try:
            idx = tuple(int(x) for x in left.strip("()").split(","))
        except ValueError:
            raise ParseError(lineno, f"bad multi-index {left!r}") from None
        if len(idx) != d or any(x < 0 for x in idx):
            raise ParseError(lineno, f"multi-index {left} is not "
                                     f"{d} nonnegative integers")
        try:
            coeffs[idx] = Fraction(right)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad rational {right!r}") from None
    return Jet(d, order, coeffs)


def tensors_agree(t1: TensorJet, t2: TensorJet, order=None) -> bool:
    """Componentwise equality up to the common valid truncation order."""
    if t1.degree != t2.degree or t1.d != t2.d:
        return False
    if order is None:
        order = min(t1.order, t2.order)
    keys = set(t1.comps) | set(t2.comps)
    return all(t1.comp(k).truncate(order) == t2.comp(k).truncate(order)
               for k in keys)


# -- the valuation -------------------------------------------------------------

class Valuation:
    """Morphism data: jets for the Christoffel generator and noise fields."""

    def __init__(self, gamma: TensorJet, sigmas, h: TensorJet = None):
        self.gamma = gamma
        self.sigmas = list(sigmas)
        self.h = h
        self.d = gamma.d if gamma is not None else self.sigmas[0].d
        self.order = gamma.order if gamma is not None else self.sigmas[0].order
        self._generators = {}

    def generator_tensor(self, name, k=0):
        """The jet of generator ``name`` derived k times, cached per (name, k).

        The cache relies on ``gamma``, ``sigmas`` and ``h`` staying unchanged
        after construction.
        """
        tens = self._generators.get((name, k))
        if tens is None:
            tens = (self._generator(name) if k == 0
                    else self.generator_tensor(name, k - 1).derive())
            self._generators[(name, k)] = tens
        return tens

    def _generator(self, name):
        if name == GAMMA.name:
            return 2 * self.gamma
        if name == NOISE.name:
            raise ValueError("plain noise needs a label; apply iota first")
        if name.startswith("Xi"):
            i = int(name[2:])
            return self.sigmas[i - 1]
        if name == "h":
            if self.h is None:
                raise ValueError("no jet supplied for the h generator")
            return self.h
        if name == GPAIR.name:
            return inverse_metric(self.sigmas)
        raise ValueError(f"no jet for generator {name!r}")

    def evaluate_graph(self, g: XGraph) -> TensorJet:
        """Evaluate one graph; trees use recursive contraction."""
        if g.pairing:
            raise ValueError("evaluate_graph takes labelled (unpaired) graphs")
        if g.l == 0 and g.u <= 1 and _is_rooted_forest(g):
            return self._evaluate_tree(g)
        return self._evaluate_decompose(g)

    def _evaluate_tree(self, g: XGraph) -> TensorJet:
        children = {v: {"star": [], "native": {}} for v in range(g.n_vertices)}
        roots = []
        for src, dst in g.wiring.items():
            if dst[0] == "u":
                roots.append(src[0])
            elif dst[1] == 0:
                children[dst[0]]["star"].append(src[0])
            else:
                children[dst[0]]["native"][dst[1]] = src[0]

        memo = {}

        def value(v):
            if v in memo:
                return memo[v]
            t = g.types[v]
            stars = children[v]["star"]
            tens = self.generator_tensor(t.name, len(stars))
            # lower slots now: [stars..., natives...]; contract from the front
            for w in stars:
                tens = tens.contract_lower(1, value(w))
            for j in range(1, t.in_arity + 1):
                tens = tens.contract_lower(1, value(children[v]["native"][j]))
            memo[v] = tens
            return tens

        if g.u == 1:
            return value(roots[0])
        # degree (0,0): product of the traces of closed components is not a
        # tree; _is_rooted_forest only admits the empty graph here.
        return TensorJet(0, 0, self.d, self.order,
                         {(): Jet.constant(self.d, self.order, 1)})

    def _evaluate_decompose(self, g: XGraph) -> TensorJet:
        from .algebra import decompose

        m, alpha, parts = decompose(g)
        prod = TensorJet(0, 0, self.d, self.order,
                         {(): Jet.constant(self.d, self.order, 1)})
        for dcount, t in parts:
            prod = prod.product(self.generator_tensor(t.name, dcount))
        out = prod.act(alpha)
        for _ in range(m):
            out = out.trace()
        return out

    def __call__(self, a) -> TensorJet:
        """Evaluate a LinComb of labelled graphs or one paired symbol."""
        if isinstance(a, XGraph):
            if a.pairing:
                a = iota_expand(a, len(self.sigmas))
            else:
                a = LinComb.of(a)
        out = None
        for g, c in a.terms.items():
            if g.pairing:
                val = self(iota_expand(g, len(self.sigmas)))
            else:
                val = self.evaluate_graph(g)
            val = c * val
            out = val if out is None else out + val
        if out is None:
            degs = a.degrees()
            u, l = next(iter(degs)) if degs else (0, 0)
            return TensorJet(u, l, self.d, self.order, {})
        return out


def _is_rooted_forest(g: XGraph) -> bool:
    """Every output feeds an internal slot or up:1; acyclic; no low slots."""
    if g.l != 0 or g.has_directed_cycle():
        return False
    ups = sum(1 for d in g.wiring.values() if d[0] == "u")
    return ups == g.u


# -- differential geometry oracles ---------------------------------------------

def random_jet(rng, d, order, spread=2):
    coeffs = {}
    for idx in _multi_indices(d, order):
        coeffs[idx] = Fraction(rng.randint(-spread, spread),
                               rng.randint(1, spread))
    return Jet(d, order, coeffs)


def random_vector_field(rng, d, order, spread=2):
    return vector_jet(d, order, [random_jet(rng, d, order, spread)
                                 for _ in range(d)])


def random_gamma(rng, d, order, spread=2):
    """A (1,2) tensor jet symmetric in its two lower slots."""
    comps = {}
    for b in range(d):
        for c in range(b, d):
            for a in range(d):
                j = random_jet(rng, d, order, spread)
                comps[(b, c, a)] = j
                comps[(c, b, a)] = j
    return TensorJet(1, 2, d, order, comps)


def inverse_metric(sigmas) -> TensorJet:
    """g^{ab} = sum_i sigma_i^a sigma_i^b as a (2,0) tensor jet."""
    out = sigmas[0].product(sigmas[0])
    for s in sigmas[1:]:
        out = out + s.product(s)
    return out


def levi_civita(sigmas) -> TensorJet:
    """Christoffel jets of the Levi-Civita connection of sum sigma sigma^T."""
    d, order = sigmas[0].d, sigmas[0].order
    ginv = inverse_metric(sigmas)
    ginv_mat = [[ginv.comp((a, b)) for b in range(d)] for a in range(d)]
    gmat = matrix_inverse(ginv_mat)
    comps = {}
    for a in range(d):
        for b in range(d):
            for c in range(d):
                total = zero_jet(d, order)
                for e in range(d):
                    term = (gmat[e][c].partial(b) + gmat[e][b].partial(c)
                            - gmat[b][c].partial(e))
                    total = total + ginv_mat[a][e] * term
                comps[(b, c, a)] = Fraction(1, 2) * total
    return TensorJet(1, 2, d, order - 1, comps)


def riemann(gamma: TensorJet) -> TensorJet:
    """Curvature (1,3) jet with slots in X, Y, Z order.

    comps[(b, c, e, a)] is the a-component of R(e_b, e_c) e_e =
    (nabla_b nabla_c - nabla_c nabla_b) e_e, antisymmetric in (b, c).
    """
    d, order = gamma.d, gamma.order

    def G(a, b, c):
        return gamma.comp((b, c, a))

    comps = {}
    for b in range(d):
        for c in range(d):
            for e in range(d):
                for a in range(d):
                    j = G(a, c, e).partial(b) - G(a, b, e).partial(c)
                    for z in range(d):
                        j = j + G(a, b, z) * G(z, c, e) - G(a, c, z) * G(z, b, e)
                    comps[(b, c, e, a)] = j
    return TensorJet(1, 3, d, order - 1, comps)


def covariant_vector_derivative(gamma: TensorJet, x: TensorJet, y: TensorJet):
    """(nabla_X Y)^a = X^b d_b Y^a + Gamma^a_{bc} X^b Y^c."""
    d, order = y.d, y.order - 1
    comps = {}
    for a in range(d):
        j = zero_jet(d, order)
        for b in range(d):
            j = j + x.comp((b,)) * y.comp((a,)).partial(b)
            for c in range(d):
                j = j + gamma.comp((b, c, a)) * x.comp((b,)) * y.comp((c,))
        comps[(a,)] = j
    return TensorJet(1, 0, d, order, comps)


def nabla_inverse_metric(gamma: TensorJet, ginv: TensorJet) -> TensorJet:
    """(nabla_z g)^{ab} as a (2,1) tensor with key (z, a, b)."""
    d, order = ginv.d, ginv.order - 1
    comps = {}
    for z in range(d):
        for a in range(d):
            for b in range(d):
                j = ginv.comp((a, b)).partial(z)
                for n in range(d):
                    j = (j + gamma.comp((z, n, a)) * ginv.comp((n, b))
                         + gamma.comp((z, n, b)) * ginv.comp((a, n)))
                comps[(z, a, b)] = j
    return TensorJet(2, 1, d, order, comps)


def nabla_riemann(gamma: TensorJet, riem: TensorJet) -> TensorJet:
    """(nabla_z R)^a_{b,c,e} as a (1,4) tensor with key (z, b, c, e, a)."""
    d, order = riem.d, riem.order - 1
    comps = {}
    for z in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    for a in range(d):
                        j = riem.comp((b, c, e, a)).partial(z)
                        for n in range(d):
                            j = j + gamma.comp((z, n, a)) * riem.comp((b, c, e, n))
                            j = j - gamma.comp((z, b, n)) * riem.comp((n, c, e, a))
                            j = j - gamma.comp((z, c, n)) * riem.comp((b, n, e, a))
                            j = j - gamma.comp((z, e, n)) * riem.comp((b, c, n, a))
                        comps[(z, b, c, e, a)] = j
    return TensorJet(1, 4, d, order, comps)


def curvature_counterterm(gamma: TensorJet, sigmas) -> TensorJet:
    """-R^a_{b,c,e} g^{bz} (nabla_z g)^{ce}: the expected value of tau_star.

    The X slot contracts against the inverse metric, the (Y, Z) pair against
    the covariant derivative of the inverse metric.
    """
    d = gamma.d
    riem = riemann(gamma)
    ginv = inverse_metric(sigmas)
    ng = nabla_inverse_metric(gamma, ginv)
    order = min(riem.order, ng.order)
    comps = {}
    for a in range(d):
        j = zero_jet(d, order)
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    for z in range(d):
                        j = j - riem.comp((b, c, e, a)) * ginv.comp((b, z)) \
                            * ng.comp((z, c, e))
        comps[(a,)] = j
    return TensorJet(1, 0, d, order, comps)


def gradient_counterterm(gamma: TensorJet, sigmas) -> TensorJet:
    """(nabla_z R)^a_{b,c,e} g^{zc} g^{be}: the expected value of tau_c."""
    d = gamma.d
    riem = riemann(gamma)
    ginv = inverse_metric(sigmas)
    nr = nabla_riemann(gamma, riem)
    order = nr.order
    comps = {}
    for a in range(d):
        j = zero_jet(d, order)
        for z in range(d):
            for b in range(d):
                for c in range(d):
                    for e in range(d):
                        j = j + nr.comp((z, b, c, e, a)) * ginv.comp((z, c)) \
                            * ginv.comp((b, e))
        comps[(a,)] = j
    return TensorJet(1, 0, d, order, comps)


def scalar_curvature_gradient(gamma: TensorJet, sigmas) -> TensorJet:
    """g^{az} d_z (g^{ce} Ric_{ce}) with Ric_{ce} = R^a_{a,c,e}."""
    d = gamma.d
    riem = riemann(gamma)
    ginv = inverse_metric(sigmas)
    order = riem.order
    scal = zero_jet(d, order)
    for c in range(d):
        for e in range(d):
            ric = zero_jet(d, order)
            for a in range(d):
                ric = ric + riem.comp((a, c, e, a))
            scal = scal + ginv.comp((c, e)) * ric
    comps = {}
    for a in range(d):
        j = zero_jet(d, order - 1)
        for z in range(d):
            j = j + ginv.comp((a, z)) * scal.partial(z)
        comps[(a,)] = j
    return TensorJet(1, 0, d, order - 1, comps)


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
