"""Decorated multigraphs over a bigraded generator set.

A graph of degree (u, l) has u external output slots ``up:1..u``, l external
input slots ``low:1..l``, a list of typed vertices, and a total wiring map
from output slots to input slots.  Every external up slot and every native
vertex input slot receives exactly one edge; star slots absorb any number.
External low slots never wire directly to external up slots.

Slots are pairs: ``('l', k)`` / ``('u', k)`` for externals, ``(v, j)`` for
vertex slots where ``v`` is the vertex index, ``j >= 1`` a native slot and
``j == 0`` the star slot of ``v``.

Canonical forms minimise a deterministic serialisation over vertex
relabelings combined with the declared per-generator slot symmetries, so two
graphs get the same canonical key iff they are isomorphic in the
symmetry-aware (quotient) sense, with external labels and pairings preserved.
The number of search elements hitting the minimum is the order of the
automorphism group, which doubles as the symmetry factor of tree symbols.

The search runs over orderings that respect refined vertex colours, modulo
*twins*: vertices u, v whose transposition, with identity slot choices, is an
automorphism (the star leaves of one vertex, say).  The twin group T, the
product of the symmetric groups on the twin classes, acts freely on the
search elements and leaves the serialisation unchanged, so one element per
T-orbit (each twin class in increasing vertex order) reaches the same
minimum, and the automorphism count is its hits times |T|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field


class StructureError(ValueError):
    """Malformed wiring: a slot has the wrong number of incoming edges.

    ``src`` is the source slot of the one edge at fault, or None when the
    fault lies with no single edge (a slot that got no edge).
    """

    def __init__(self, msg, src=None):
        super().__init__(msg)
        self.src = src


class DegreeError(ValueError):
    """An operation received operands of incompatible degree."""


class PairingError(ValueError):
    """A pairing constraint is violated (odd block, overlap, missing pair).

    ``pair`` is the one pair at fault, or None.
    """

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


def _perm_closure(perms, n):
    """Close a set of permutations of 1..n (1-based tuples) under composition."""
    ident = tuple(range(1, n + 1))
    group = {ident}
    frontier = [tuple(p) for p in perms]
    for p in frontier:
        if len(p) != n or sorted(p) != list(ident):
            raise ValueError(f"{p} is not a permutation of 1..{n}")
    while frontier:
        p = frontier.pop()
        if p in group:
            continue
        group.add(p)
        for q in list(group):
            for r in (tuple(p[q[i] - 1] for i in range(n)),
                      tuple(q[p[i] - 1] for i in range(n))):
                if r not in group:
                    frontier.append(r)
    return frozenset(group)


@dataclass(frozen=True)
class GeneratorType:
    """A generator with native input/output slots and optional slot symmetry.

    ``in_sym`` / ``out_sym`` list permutations (1-based tuples) under which
    the generator is declared invariant; the stored groups are closed under
    composition and always contain the identity.
    """

    name: str
    in_arity: int
    out_arity: int
    in_sym: frozenset = field(default=())
    out_sym: frozenset = field(default=())

    def __post_init__(self):
        ins = _perm_closure(self.in_sym or (), self.in_arity)
        outs = _perm_closure(self.out_sym or (), self.out_arity)
        object.__setattr__(self, "in_sym", ins)
        object.__setattr__(self, "out_sym", outs)
        group = tuple(itertools.product(sorted(ins), sorted(outs)))
        object.__setattr__(self, "_group", group)
        object.__setattr__(self, "_in_orb",
                           tuple(min(p[j] for p in ins) for j in range(self.in_arity)))
        object.__setattr__(self, "_out_orb",
                           tuple(min(p[j] for p in outs) for j in range(self.out_arity)))

    @property
    def slot_group(self):
        """All (in_perm, out_perm) pairs; the identity pair comes first."""
        return self._group

    def in_orbit(self, j):
        return self._in_orb[j - 1]

    def out_orbit(self, j):
        return self._out_orb[j - 1]

    def __repr__(self):
        return f"GeneratorType({self.name!r}, {self.in_arity}, {self.out_arity})"


def _check_wiring(u, l, types, wiring):
    out_slots = {("l", k) for k in range(1, l + 1)}
    for v, t in enumerate(types):
        out_slots.update((v, j) for j in range(1, t.out_arity + 1))
    if wiring.keys() != out_slots:
        extra = [src for src in wiring if src not in out_slots]
        raise StructureError("wiring domain does not match the output slot set",
                             extra[0] if extra else None)
    counts = {}
    last = {}
    for src, dst in wiring.items():
        counts[dst] = counts.get(dst, 0) + 1
        last[dst] = src
        if src[0] == "l" and dst[0] == "u":
            raise StructureError(f"low:{src[1]} wired directly to up:{dst[1]}", src)
        if dst[0] == "u":
            if not (1 <= dst[1] <= u):
                raise StructureError(f"edge into nonexistent up:{dst[1]}", src)
        else:
            v, j = dst
            if not (isinstance(v, int) and 0 <= v < len(types)):
                raise StructureError(f"edge into nonexistent vertex {v!r}", src)
            if not (0 <= j <= types[v].in_arity):
                raise StructureError(f"edge into nonexistent slot {v}.in:{j}", src)
    # A slot with two or more edges is blamed on the last edge into it.
    for k in range(1, u + 1):
        c = counts.get(("u", k), 0)
        if c != 1:
            raise StructureError(f"up:{k} has {c} incoming edges, wants exactly 1",
                                 last.get(("u", k)))
    for v, t in enumerate(types):
        for j in range(1, t.in_arity + 1):
            c = counts.get((v, j), 0)
            if c != 1:
                raise StructureError(f"native slot {v}.in:{j} has {c} edges, wants 1",
                                     last.get((v, j)))


def _norm_src(s):
    return (-1, s[1]) if s[0] == "l" else s


class XGraph:
    """Immutable decorated graph; hashes and compares by canonical form."""

    __slots__ = ("u", "l", "types", "wiring", "pairing", "_canon", "_aut", "_key")

    def __init__(self, u, l, types, wiring, pairing=()):
        wiring = dict(wiring)
        types = tuple(types)
        _check_wiring(u, l, types, wiring)
        pset = set()
        seen = set()
        for p in map(frozenset, pairing):
            if p in pset:
                continue
            if len(p) != 2 or not all(isinstance(v, int) and 0 <= v < len(types) for v in p):
                raise PairingError(f"bad pair {set(p)}", p)
            if p & seen:
                raise PairingError("pairing blocks overlap", p)
            pset.add(p)
            seen |= p
        self.u = u
        self.l = l
        self.types = types
        self.wiring = wiring
        self.pairing = frozenset(pset)
        self._canon = None
        self._aut = None
        self._key = None

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self):
        return (self.u, self.l)

    @property
    def n_vertices(self):
        return len(self.types)

    def internal_edges(self):
        """Vertex output slots whose edge lands on a vertex slot."""
        return [s for s, d in self.wiring.items()
                if isinstance(s[0], int) and d[0] != "u"]

    def star_degree(self, v):
        return sum(1 for d in self.wiring.values() if d == (v, 0))

    def vertex_components(self, with_pairing=True):
        """Weakly connected components of the vertex set (pairing as edges)."""
        parent = list(range(self.n_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for src, dst in self.wiring.items():
            if isinstance(src[0], int) and isinstance(dst[0], int):
                parent[find(src[0])] = find(dst[0])
        if with_pairing:
            for p in self.pairing:
                a, b = sorted(p)
                parent[find(a)] = find(b)
        comps = {}
        for v in range(self.n_vertices):
            comps.setdefault(find(v), []).append(v)
        return sorted(comps.values())

    def is_connected(self, with_pairing=False):
        return len(self.vertex_components(with_pairing=with_pairing)) <= 1

    def has_directed_cycle(self, merge_pairs=False):
        """Directed cycle among vertices; optionally identify paired vertices."""
        n = self.n_vertices
        rep = list(range(n))
        if merge_pairs:
            for p in self.pairing:
                a, b = sorted(p)
                rep[b] = a
        adj = {v: set() for v in range(n)}
        for src, dst in self.wiring.items():
            if isinstance(src[0], int) and isinstance(dst[0], int):
                adj[rep[src[0]]].add(rep[dst[0]])
        state = {}

        def visit(v):
            state[v] = 1
            for w in adj[v]:
                if state.get(w, 0) == 1:
                    return True
                if state.get(w, 0) == 0 and visit(w):
                    return True
            state[v] = 2
            return False

        return any(state.get(v, 0) == 0 and visit(v) for v in range(n))

    # -- canonicalisation --------------------------------------------------

    def _wl_colors(self):
        """Iterated refinement of isomorphism-invariant vertex colors."""
        n = self.n_vertices
        ext = [[] for _ in range(n)]
        for src, dst in self.wiring.items():
            if isinstance(src[0], int) and dst[0] == "u":
                ext[src[0]].append((0, dst[1], self.types[src[0]].out_orbit(src[1])))
            if src[0] == "l" and isinstance(dst[0], int):
                v, j = dst
                slot = 0 if j == 0 else self.types[v].in_orbit(j)
                ext[v].append((1, src[1], slot))
        colors = [(self.types[v].name, tuple(sorted(ext[v]))) for v in range(n)]
        for _ in range(n):
            nbrs = [[] for _ in range(n)]
            for src, dst in self.wiring.items():
                if isinstance(src[0], int) and isinstance(dst[0], int):
                    a, ja = src
                    b, jb = dst
                    oa = self.types[a].out_orbit(ja)
                    ob = 0 if jb == 0 else self.types[b].in_orbit(jb)
                    nbrs[a].append((0, oa, ob, colors[b]))
                    nbrs[b].append((1, ob, oa, colors[a]))
            for p in self.pairing:
                a, b = sorted(p)
                nbrs[a].append((2, 0, 0, colors[b]))
                nbrs[b].append((2, 0, 0, colors[a]))
            new = [(colors[v], tuple(sorted(nbrs[v], key=repr))) for v in range(n)]
            ranked = {c: i for i, c in enumerate(sorted(set(new), key=repr))}
            refined = [ranked[c] for c in new]
            if len(set(refined)) == len(set(colors)):
                return refined
            colors = refined
        return colors

    def _twin_classes(self, colors):
        """The colour classes in colour order, each split into twin classes.

        u and v are twins when the transposition (u v), with identity slot
        choices, is an automorphism.  Twins share a colour, and being twins
        is an equivalence ((u w) is (u v) conjugated by (v w)), so each
        vertex is tested against one member of each class found so far.
        Every class lists its vertices in increasing order.
        """
        by_color = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        blocks = [by_color[c] for c in sorted(by_color)]
        shared = {v for b in blocks if len(b) > 1 for v in b}
        if not shared:
            return [[b] for b in blocks]
        partner = {}
        for a, b in self.pairing:
            partner[a], partner[b] = b, a
        incident = {v: [] for v in shared}
        for src, dst in self.wiring.items():
            if src[0] in incident:
                incident[src[0]].append((src, dst))
            if dst[0] != src[0] and dst[0] in incident:
                incident[dst[0]].append((src, dst))

        def twins(u, v):
            if partner.get(u) != partner.get(v) and partner.get(u) != v:
                return False

            def swap(slot):
                w = slot[0]
                return (v, slot[1]) if w == u else (u, slot[1]) if w == v else slot

            return all(self.wiring[swap(s)] == swap(d)
                       for s, d in incident[u] + incident[v])

        out = []
        for block in blocks:
            classes = []
            for v in block:
                for cls in classes:
                    if twins(cls[0], v):
                        cls.append(v)
                        break
                else:
                    classes.append([v])
            out.append(classes)
        return out

    @staticmethod
    def _orderings(twin_blocks):
        """Colour-respecting orderings that keep each twin class increasing."""
        for parts in itertools.product(*map(_interleavings, twin_blocks)):
            yield [v for part in parts for v in part]

    def _encode(self, order, choice):
        pos = {v: i for i, v in enumerate(order)}
        entries = []
        for src, dst in self.wiring.items():
            if src[0] == "l":
                s = (-1, src[1])
            else:
                v, j = src
                s = (pos[v], choice[v][1][j - 1])
            if dst[0] == "u":
                d = (-1, dst[1])
            elif dst[1] == 0:
                d = (pos[dst[0]], 0)
            else:
                v, j = dst
                d = (pos[v], choice[v][0][j - 1])
            entries.append((s, d))
        entries.sort()
        pairs = sorted(tuple(sorted(pos[v] for v in p)) for p in self.pairing)
        return (tuple(self.types[v].name for v in order), tuple(entries), tuple(pairs))

    def canonicalize(self):
        """Return (canonical graph, automorphism count).

        Minimises ``_encode`` over (ordering, slot choice) pairs, where the
        orderings respect the refined colours and keep each twin class in
        increasing vertex order.  That is exact: the twin group T permutes
        the search elements freely (no element is fixed by a non-identity
        twin permutation) and ``_encode`` is constant on each T-orbit, so
        the minimum is unchanged, the canonical graph (a function of the
        minimal encoding) is unchanged, and the hits times |T| count every
        minimising element of the full search: the automorphism group.
        """
        if self._canon is not None:
            return self._canon, self._aut
        twin_blocks = self._twin_classes(self._wl_colors())
        groups = [self.types[v].slot_group for v in range(self.n_vertices)]
        best = None
        best_data = None
        hits = 0
        for order in self._orderings(twin_blocks):
            for choice in itertools.product(*groups):
                enc = self._encode(order, choice)
                if best is None or enc < best:
                    best, best_data, hits = enc, (order, choice), 1
                elif enc == best:
                    hits += 1
        for classes in twin_blocks:
            for cls in classes:
                hits *= math.factorial(len(cls))
        order, choice = best_data
        pos = {v: i for i, v in enumerate(order)}
        wiring = {}
        for src, dst in self.wiring.items():
            s = src if src[0] == "l" else (pos[src[0]], choice[src[0]][1][src[1] - 1])
            if dst[0] == "u":
                d = dst
            elif dst[1] == 0:
                d = (pos[dst[0]], 0)
            else:
                d = (pos[dst[0]], choice[dst[0]][0][dst[1] - 1])
            wiring[s] = d
        # A relabelling of this validated graph: skip __init__'s checks.
        g = XGraph.__new__(XGraph)
        g.u, g.l, g.wiring = self.u, self.l, wiring
        g.types = tuple(self.types[v] for v in order)
        g.pairing = frozenset(frozenset(pos[v] for v in p) for p in self.pairing)
        key = (self.u, self.l, best)
        g._canon, g._aut, g._key = g, hits, key
        self._canon, self._aut, self._key = g, hits, key
        return g, hits

    def canonical_key(self):
        if self._key is None:
            self.canonicalize()
        return self._key

    def aut_count(self):
        return self.canonicalize()[1]

    def __eq__(self, other):
        if not isinstance(other, XGraph):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        names = ",".join(t.name for t in self.types)
        return f"XGraph(({self.u},{self.l}) [{names}] {len(self.pairing)}p)"


def _interleavings(classes):
    """Orderings of the union of ``classes`` that keep each class's order."""
    if len(classes) == 1:
        yield tuple(classes[0])
        return
    for i, cls in enumerate(classes):
        rest = classes[:i] + classes[i + 1:]
        if len(cls) > 1:
            rest.append(cls[1:])
        for tail in _interleavings(rest):
            yield (cls[0],) + tail


def empty_graph():
    return XGraph(0, 0, (), {})


# -- text serialisation ----------------------------------------------------

def format_graph(g):
    lines = [f"xgraph u={g.u} l={g.l}"]
    for v, t in enumerate(g.types):
        lines.append(f"v {v} {t.name}")

    def slot_src(s):
        return f"low:{s[1]}" if s[0] == "l" else f"{s[0]}.out:{s[1]}"

    def slot_dst(d):
        if d[0] == "u":
            return f"up:{d[1]}"
        return f"{d[0]}.star" if d[1] == 0 else f"{d[0]}.in:{d[1]}"

    for src in sorted(g.wiring, key=_norm_src):
        lines.append(f"e {slot_src(src)} -> {slot_dst(g.wiring[src])}")
    for p in sorted(tuple(sorted(q)) for q in g.pairing):
        lines.append(f"pair {p[0]} {p[1]}")
    return "\n".join(lines)


class ParseError(ValueError):
    def __init__(self, lineno, msg):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


def _ints(tokens, lineno, what):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(lineno, f"bad {what} {' '.join(tokens)!r}") from None


def _parse_src(tok, lineno):
    if tok.startswith("low:"):
        return ("l", *_ints([tok[4:]], lineno, "edge source"))
    if tok.count(".out:") == 1:
        return tuple(_ints(tok.split(".out:"), lineno, "edge source"))
    raise ParseError(lineno, f"bad edge source {tok!r}")


def _parse_dst(tok, lineno):
    if tok.startswith("up:"):
        return ("u", *_ints([tok[3:]], lineno, "edge target"))
    if tok.endswith(".star"):
        return (*_ints([tok[:-5]], lineno, "edge target"), 0)
    if tok.count(".in:") == 1:
        return tuple(_ints(tok.split(".in:"), lineno, "edge target"))
    raise ParseError(lineno, f"bad edge target {tok!r}")


# The largest graph ``parse_graph`` accepts.  Canonicalising a twin-free
# colour class grows about tenfold per vertex (seconds at nine vertices).
MAX_VERTICES = 10


def parse_graph(text, generators, offset=0):
    """Parse one graph block; ``generators`` maps type names to GeneratorType.

    ``offset`` shifts reported line numbers (for blocks inside larger files).
    A block with more than ``MAX_VERTICES`` vertices is a ParseError at the
    line of the first vertex past the limit.
    """
    u = l = None
    types = []
    wiring = {}
    pairing = []
    edge_lines = {}
    pair_lines = {}
    for i, raw in enumerate(text.splitlines()):
        lineno = offset + i + 1
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "xgraph":
            try:
                kv = dict(p.split("=") for p in parts[1:])
                u, l = int(kv["u"]), int(kv["l"])
            except Exception:
                raise ParseError(lineno, "expected 'xgraph u=<U> l=<L>'")
        elif parts[0] == "v":
            if len(types) == MAX_VERTICES:
                raise ParseError(lineno,
                                 f"more than {MAX_VERTICES} vertices")
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'v <id> <typename>'")
            (vid,), tname = _ints(parts[1:2], lineno, "vertex id"), parts[2]
            if vid != len(types):
                raise ParseError(lineno, f"vertex ids must be consecutive, got {vid}")
            if tname not in generators:
                raise ParseError(lineno, f"unknown generator type {tname!r}")
            types.append(generators[tname])
        elif parts[0] == "e":
            if len(parts) != 4 or parts[2] != "->":
                raise ParseError(lineno, "expected 'e <src> -> <dst>'")
            src = _parse_src(parts[1], lineno)
            dst = _parse_dst(parts[3], lineno)
            if src in wiring:
                raise ParseError(lineno, f"duplicate edge source {parts[1]}")
            wiring[src] = dst
            edge_lines[src] = lineno
        else:
            if parts[0] != "pair":
                raise ParseError(lineno, f"unknown directive {parts[0]!r}")
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'pair <id> <id>'")
            pair = tuple(_ints(parts[1:], lineno, "pair"))
            key = frozenset(pair)
            if key in pair_lines:
                raise ParseError(lineno, f"duplicate pair {parts[1]} {parts[2]}")
            pairing.append(pair)
            pair_lines[key] = lineno
    if u is None:
        raise ParseError(offset + 1, "missing 'xgraph' header")
    # An error naming one edge or pair is reported at its line, any other
    # at the block's first line.
    try:
        return XGraph(u, l, types, wiring, pairing)
    except StructureError as exc:
        raise ParseError(edge_lines.get(exc.src, offset + 1), str(exc)) from exc
    except PairingError as exc:
        raise ParseError(pair_lines.get(exc.pair, offset + 1), str(exc)) from exc
