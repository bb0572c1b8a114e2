"""Linear combinations of canonical graphs and the defining operations.

The operations implemented here: the symmetric-group action on external
slots, the (disjoint-union) product, the partial trace pairing the last up
and low slots, the derivation prepending a low slot wired to a star slot,
the grafting product on degree (1,0), the inner product making distinct
canonical graphs orthogonal with ``<g,g>`` the automorphism count, and the
adjoints of product / trace / derivation.  ``decompose`` writes any graph as
``tr^m alpha(d^{d1} t1 . ... . d^{dn} tn)``.

Every operation on combinations is a graph map extended linearly: a function
from one graph to an iterable of ``(graph, coefficient)`` pairs, handed to
``LinComb.map_terms``.  ``LinComb(pairs)`` is the one way to build a
combination; each pair is canonicalised and merged as it arrives.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .graphs import (DegreeError, GeneratorType, PairingError, StructureError,
                     XGraph, empty_graph)


class LinComb:
    """Finite formal sum of canonical graphs with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, pairs=()):
        self.terms = {}
        for g, c in pairs:
            self._add(g, c)

    def _add(self, g, c):
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if not c:
            return
        g = g.canonicalize()[0]
        old = self.terms.get(g)
        if old is not None:
            c += old
            if not c:
                del self.terms[g]
                return
        self.terms[g] = c

    @classmethod
    def of(cls, g, c=1):
        out = cls()
        out._add(g, c)
        return out

    def __add__(self, other):
        out = LinComb()
        out.terms = dict(self.terms)
        for g, c in other.terms.items():
            out._add(g, c)
        return out

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        out = LinComb()
        s = Fraction(scalar)
        if s:
            out.terms = {g: c * s for g, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, LinComb):
            return product(self, other)
        return self.__rmul__(other)

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].canonical_key())

    def coefficients(self):
        return [c for _, c in self.items()]

    def degrees(self):
        return {g.degree for g in self.terms}

    def degree(self):
        degs = self.degrees()
        if len(degs) > 1:
            raise DegreeError(f"heterogeneous degrees {sorted(degs)}")
        return next(iter(degs)) if degs else None

    def map_terms(self, fn):
        """Linear extension of a graph map.

        ``fn`` sends one graph to an iterable of ``(graph, coefficient)``
        pairs; the image graphs need not be canonical.
        """
        out = LinComb()
        for g, c in self.terms.items():
            for h, d in fn(g):
                out._add(h, c if d == 1 else c * d)
        return out

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        bits = [f"{c}*{g!r}" for g, c in self.items()]
        return "LinComb(" + " + ".join(bits) + ")"


def unit():
    return LinComb.of(empty_graph())


def generator_graph(t: GeneratorType) -> XGraph:
    """The elementary one-vertex graph of a generator type."""
    wiring = {}
    for j in range(1, t.in_arity + 1):
        wiring[("l", j)] = (0, j)
    for j in range(1, t.out_arity + 1):
        wiring[(0, j)] = ("u", j)
    return XGraph(t.out_arity, t.in_arity, (t,), wiring)


def generator(t: GeneratorType) -> LinComb:
    return LinComb.of(generator_graph(t))


# -- permutations ------------------------------------------------------------

def identity_perm(n):
    return tuple(range(1, n + 1))


def invert_perm(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x - 1] = i + 1
    return tuple(inv)


def block_perm(p1, p2):
    """Concatenation p1 . p2 acting on the first block then the second."""
    n1 = len(p1)
    return tuple(p1) + tuple(x + n1 for x in p2)


def swap_perm(u1, l1, u2, l2):
    """The element swapping a (u1,l1)-block with a (u2,l2)-block.

    Acting on A.B of these degrees gives B.A.
    """
    pu = tuple(range(u2 + 1, u2 + u1 + 1)) + tuple(range(1, u2 + 1))
    pl = tuple(range(l2 + 1, l2 + l1 + 1)) + tuple(range(1, l2 + 1))
    return (pu, pl)


# -- graph-level operations ---------------------------------------------------

def act_graph(alpha, g: XGraph) -> XGraph:
    pu, pl = alpha
    if len(pu) != g.u or len(pl) != g.l:
        raise DegreeError(f"permutation acts on ({len(pu)},{len(pl)}), graph has {g.degree}")
    for p in alpha:
        if sorted(p) != list(range(1, len(p) + 1)):
            raise ValueError(f"{p} is not a permutation of 1..{len(p)}")
    ipl = invert_perm(pl) if pl else pl
    wiring = {}
    for src, dst in g.wiring.items():
        if src[0] == "l":
            wiring[src] = g.wiring[("l", ipl[src[1] - 1])]
        elif dst[0] == "u":
            wiring[src] = ("u", pu[dst[1] - 1])
        else:
            wiring[src] = dst
    return XGraph._trusted(g.u, g.l, g.types, wiring, g.pairing)


def product_graph(a: XGraph, b: XGraph) -> XGraph:
    n1 = a.n_vertices

    def shift_src(s):
        return ("l", a.l + s[1]) if s[0] == "l" else (s[0] + n1, s[1])

    def shift_dst(d):
        return ("u", a.u + d[1]) if d[0] == "u" else (d[0] + n1, d[1])

    wiring = dict(a.wiring)
    for src, dst in b.wiring.items():
        wiring[shift_src(src)] = shift_dst(dst)
    pairing = list(a.pairing) + [frozenset(v + n1 for v in p) for p in b.pairing]
    return XGraph._trusted(a.u + b.u, a.l + b.l, a.types + b.types, wiring, pairing)


def trace_graph(g: XGraph) -> XGraph:
    if g.u < 1 or g.l < 1:
        raise DegreeError(f"trace needs degree >= (1,1), got {g.degree}")
    target = g.wiring[("l", g.l)]
    src = next(s for s, d in g.wiring.items() if d == ("u", g.u))
    wiring = dict(g.wiring)
    del wiring[("l", g.l)]
    wiring[src] = target
    return XGraph._trusted(g.u - 1, g.l - 1, g.types, wiring, g.pairing)


def derive_vertex_graph(g: XGraph, v) -> XGraph:
    if not (isinstance(v, int) and 0 <= v < g.n_vertices):
        raise StructureError(f"edge into nonexistent vertex {v!r}", ("l", 1))
    wiring = {("l", 1): (v, 0)}
    for src, dst in g.wiring.items():
        if src[0] == "l":
            wiring[("l", src[1] + 1)] = dst
        else:
            wiring[src] = dst
    return XGraph._trusted(g.u, g.l + 1, g.types, wiring, g.pairing)


def cut_graph(g: XGraph, e) -> XGraph:
    """Redirect internal edge e to fresh external slots up:u+1 / low:l+1."""
    wiring = dict(g.wiring)
    target = wiring[e]
    if e[0] == "l" or target[0] == "u":
        raise StructureError(f"{e} is not an internal edge", e)
    wiring[e] = ("u", g.u + 1)
    wiring[("l", g.l + 1)] = target
    return XGraph._trusted(g.u + 1, g.l + 1, g.types, wiring, g.pairing)


def subgraph(g: XGraph, vertices, u_off, l_off):
    """Restrict to a union of components; externals shift down by the offsets."""
    vset = set(vertices)
    index = {v: i for i, v in enumerate(sorted(vset))}

    def conv_src(s):
        return ("l", s[1] - l_off) if s[0] == "l" else (index[s[0]], s[1])

    def conv_dst(d):
        return ("u", d[1] - u_off) if d[0] == "u" else (index[d[0]], d[1])

    wiring = {}
    u = l = 0
    for src, dst in g.wiring.items():
        touches = (src[0] in vset) if src[0] != "l" else (dst[0] in vset)
        if not touches:
            continue
        ns, nd = conv_src(src), conv_dst(dst)
        if ns[0] == "l":
            l = max(l, ns[1])
        if nd[0] == "u":
            u = max(u, nd[1])
        wiring[ns] = nd
    pairing = [frozenset(index[v] for v in p) for p in g.pairing if p <= vset]
    types = [g.types[v] for v in sorted(vset)]
    return XGraph(u, l, types, wiring, pairing)


# -- LinComb-level operations -------------------------------------------------

def act(alpha, a: LinComb) -> LinComb:
    return a.map_terms(lambda g: [(act_graph(alpha, g), 1)])


def product(a: LinComb, b: LinComb) -> LinComb:
    return a.map_terms(lambda g1: [(product_graph(g1, g2), c2)
                                   for g2, c2 in b.terms.items()])


def trace(a: LinComb) -> LinComb:
    return a.map_terms(lambda g: [(trace_graph(g), 1)])


def derive(a: LinComb) -> LinComb:
    return a.map_terms(lambda g: [(derive_vertex_graph(g, v), 1)
                                  for v in range(g.n_vertices)])


def graft(a: LinComb, b: LinComb) -> LinComb:
    """a grafted onto b: tr(derive(b) . a) on degree-(1,0) elements.

    One graph map over the terms of b: for each vertex v of a term g and
    each term h of a, the root of h is wired into the star slot of v.
    Grafting onto the unit gives zero (it has no vertex), so degree (0,0)
    is tolerated on the right.
    """
    for x, allowed in ((a, {(1, 0)}), (b, {(1, 0), (0, 0)})):
        if x and x.degree() not in allowed:
            raise DegreeError(f"graft needs degree (1,0), got {x.degree()}")
    return b.map_terms(
        lambda g: [(trace_graph(product_graph(derive_vertex_graph(g, v), h)), c)
                   for v in range(g.n_vertices) for h, c in a.terms.items()])


def inner(a: LinComb, b: LinComb) -> Fraction:
    total = Fraction(0)
    small, big = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    for g, c in small.terms.items():
        d = big.terms.get(g)
        if d is not None:
            total += c * d * g.aut_count()
    return total


def coproduct(a: LinComb):
    """Adjoint of the product, as a dict {(left, right): coefficient}.

    Components are taken with paired vertices linked, so pairings never split
    across tensor factors.
    """
    out = {}
    for g, coeff in a.terms.items():
        comps = g.vertex_components(with_pairing=True)
        up_of = {}
        low_of = {}
        comp_of = {}
        for i, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = i
        for src, dst in g.wiring.items():
            if dst[0] == "u":
                up_of[dst[1]] = comp_of[src[0]]
            if src[0] == "l":
                low_of[src[1]] = comp_of[dst[0]]
        for r in range(len(comps) + 1):
            for chosen in itertools.combinations(range(len(comps)), r):
                cset = set(chosen)
                ups = sorted(k for k, i in up_of.items() if i in cset)
                lows = sorted(k for k, i in low_of.items() if i in cset)
                if ups != list(range(1, len(ups) + 1)):
                    continue
                if lows != list(range(1, len(lows) + 1)):
                    continue
                left_vs = [v for i in cset for v in comps[i]]
                right_vs = [v for i in range(len(comps)) if i not in cset
                            for v in comps[i]]
                left = subgraph(g, left_vs, 0, 0)
                right = subgraph(g, right_vs, len(ups), len(lows))
                if left.degree != (len(ups), len(lows)):
                    continue
                if right.degree != (g.u - len(ups), g.l - len(lows)):
                    continue
                key = (left.canonicalize()[0], right.canonicalize()[0])
                out[key] = out.get(key, Fraction(0)) + coeff
                if out[key] == 0:
                    del out[key]
    return out


def tensor_inner(pairs, f: LinComb, g: LinComb) -> Fraction:
    """<f (x) g, sum of tensor pairs> for a coproduct-style dict."""
    total = Fraction(0)
    for (x, y), c in pairs.items():
        total += c * inner(f, LinComb.of(x)) * inner(g, LinComb.of(y))
    return total


def trace_adjoint(a: LinComb) -> LinComb:
    return a.map_terms(lambda g: [(cut_graph(g, e), 1)
                                  for e in g.internal_edges()])


def derive_adjoint(a: LinComb) -> LinComb:
    def per_graph(g):
        if g.l == 0:
            return []
        target = g.wiring[("l", 1)]
        if target[0] == "u" or target[1] != 0:
            return []
        wiring = {}
        for src, dst in g.wiring.items():
            if src[0] == "l":
                if src[1] == 1:
                    continue
                wiring[("l", src[1] - 1)] = dst
            else:
                wiring[src] = dst
        return [(XGraph._trusted(g.u, g.l - 1, g.types, wiring, g.pairing), 1)]

    return a.map_terms(per_graph)


# -- representation as tr^m alpha(d^{d1} t1 ... d^{dn} tn) --------------------

def decompose(g: XGraph):
    """Write g as ``tr^m alpha(prod_i d^{d_i} t_i)``; see ``rebuild``.

    Returns (m, (alpha_u, alpha_l), parts) with parts a list of
    (d_i, GeneratorType).  The pairing is not part of the representation;
    ``rebuild`` accepts it separately.
    """
    n = g.n_vertices
    parts = [(g.star_degree(v), g.types[v]) for v in range(n)]
    intern = sorted(g.internal_edges())
    m = len(intern)
    up_pos = {}
    low_star = {}
    low_native = {}
    U = 0
    L = 0
    for v, (d, t) in enumerate(parts):
        for j in range(1, t.out_arity + 1):
            up_pos[(v, j)] = U + j
        for i in range(1, d + 1):
            low_star.setdefault(v, []).append(L + i)
        for j in range(1, t.in_arity + 1):
            low_native[(v, j)] = L + d + j
        U += t.out_arity
        L += d + t.in_arity
    # alpha_u: position of each product up slot among the final u+m slots.
    alpha_u = [0] * (g.u + m)
    for src, dst in g.wiring.items():
        if dst[0] == "u" and src[0] != "l":
            alpha_u[up_pos[src] - 1] = dst[1]
    for j, e in enumerate(intern, start=1):
        alpha_u[up_pos[e] - 1] = g.u + j
    # alpha_l: assign each final low slot r (externals then internal edges)
    # to the product low position that realises its target.
    targets = [(r, g.wiring[("l", r)]) for r in range(1, g.l + 1)]
    targets += [(g.l + j, g.wiring[e]) for j, e in enumerate(intern, start=1)]
    alpha_l = [0] * (g.l + m)
    star_fill = {v: list(ps) for v, ps in low_star.items()}
    for r, tgt in sorted(targets, key=lambda x: x[0]):
        if tgt[1] == 0:
            p = star_fill[tgt[0]].pop(0)
        else:
            p = low_native[tgt]
        alpha_l[p - 1] = r
    return m, (tuple(alpha_u), tuple(alpha_l)), parts


def rebuild(m, alpha, parts, pairing=()):
    """Inverse of ``decompose``: tr^m alpha(prod_i d^{d_i} t_i).

    Works on raw graphs so that vertex order (and hence a pairing given in
    the original vertex indices) is preserved.
    """
    prod = empty_graph()
    for d, t in parts:
        piece = generator_graph(t)
        for _ in range(d):
            piece = derive_vertex_graph(piece, 0)
        prod = product_graph(prod, piece)
    out = act_graph(alpha, prod)
    for _ in range(m):
        out = trace_graph(out)
    if pairing:
        out = XGraph(out.u, out.l, out.types, out.wiring, pairing)
    return LinComb.of(out)


# -- text serialisation --------------------------------------------------------

def format_lincomb(a: LinComb) -> str:
    from .graphs import format_graph

    blocks = []
    for g, c in a.items():
        blocks.append(f"{c} * {{\n{format_graph(g)}\n}}")
    return "\n".join(blocks) if blocks else "0"


def parse_lincomb(text: str, generators) -> LinComb:
    from .graphs import ParseError, parse_graph

    out = LinComb()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line or line.startswith("#") or line == "0":
            i += 1
            continue
        parts = line.split("*")
        if len(parts) != 2 or parts[1].strip() != "{":
            raise ParseError(i + 1, "expected '<rational> * {'")
        tok = parts[0].strip()
        try:
            coeff = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError(i + 1, f"bad coefficient {tok!r}") from None
        start = i + 1
        j = start
        while j < len(lines) and lines[j].strip() != "}":
            j += 1
        if j == len(lines):
            raise ParseError(i + 1, "unterminated graph block")
        g = parse_graph("\n".join(lines[start:j]), generators, offset=start)
        out = out + LinComb.of(g, coeff)
        i = j + 1
    return out


# -- vertex substitution ------------------------------------------------------

def substitute_vertex(g: XGraph, v, image: LinComb, carrier=None):
    """Replace vertex v by an image element of matching degree.

    Yields the ``(graph, coefficient)`` pairs of the result, so a graph map
    can pass them straight to ``LinComb.map_terms``; the graphs are not
    canonical and like terms are not merged.  ``image`` terms must have
    degree (out_arity, in_arity) of v's type.  Star edges of v are
    redistributed over all vertices of the image term (Leibniz expansion of
    the derivative slots).  If v is paired, ``carrier`` must map an image
    term to the vertex index (in the term) inheriting the pairing.
    """
    t = g.types[v]
    keep = [w for w in range(g.n_vertices) if w != v]
    reindex = {w: i for i, w in enumerate(keep)}
    partner = None
    for p in g.pairing:
        if v in p:
            (partner,) = p - {v}
    for term, coeff in image.terms.items():
        if term.degree != (t.out_arity, t.in_arity):
            raise DegreeError(
                f"image term degree {term.degree} != ({t.out_arity},{t.in_arity})")
        base = len(keep)
        types = [g.types[w] for w in keep] + list(term.types)
        # term's out slot feeding each of its up externals / target of each low
        feeds = {d[1]: (s[0] + base, s[1])
                 for s, d in term.wiring.items() if d[0] == "u"}
        nat_in = {k: (term.wiring[("l", k)][0] + base, term.wiring[("l", k)][1])
                  for k in range(1, term.l + 1)}

        def conv_src(s):
            if s[0] == "l":
                return s
            return feeds[s[1]] if s[0] == v else (reindex[s[0]], s[1])

        def conv_dst(d):
            if d[0] == "u":
                return d
            if d[0] == v:
                return None if d[1] == 0 else nat_in[d[1]]
            return (reindex[d[0]], d[1])

        wiring = {}
        star_sources = []
        for src, dst in g.wiring.items():
            ns, nd = conv_src(src), conv_dst(dst)
            if nd is None:
                star_sources.append(ns)
            else:
                wiring[ns] = nd
        for src, dst in term.wiring.items():
            if src[0] != "l" and dst[0] != "u":
                wiring[(src[0] + base, src[1])] = (dst[0] + base, dst[1])
        pairing = [frozenset(reindex[w] for w in p) for p in g.pairing if v not in p]
        pairing += [frozenset(w + base for w in p) for p in term.pairing]
        if partner is not None:
            if carrier is None:
                raise PairingError("substituting a paired vertex needs a carrier")
            c = carrier(term)
            if not (isinstance(c, int) and 0 <= c < term.n_vertices) \
                    or any(c in p for p in term.pairing):
                raise PairingError(f"carrier {c!r} is no unpaired vertex of the term")
            pairing.append(frozenset({reindex[partner], c + base}))
        for assign in itertools.product(range(term.n_vertices),
                                        repeat=len(star_sources)):
            w = dict(wiring)
            for s, tv in zip(star_sources, assign):
                w[s] = (tv + base, 0)
            yield XGraph._trusted(g.u, g.l, types, w, pairing), coeff
