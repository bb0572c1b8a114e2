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

The search runs over orderings that respect refined vertex colours, as a
depth-first tree of ordering prefixes.  Two leaves with equal encodings give
an automorphism, and a subtree that a found automorphism maps onto an explored
one is not searched again: it takes the explored subtree's minimum and hit
count.  Twins (the star leaves of one vertex), paired stars, cycles and
swapped components are all pruned this way (McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 60, 2014).  Once a leaf has come out worse
than the best one, a prefix whose lower bound on every encoding below it
exceeds the best leaf is not searched either (branch and bound); this is what
keeps a class with few automorphisms, such as a directed cycle of noises,
from visiting every ordering.  Both prunings are exact: the minimum and the
hit count are those of the full search.

The search's result is a function of the raw structure alone (degree,
vertex types, wiring, pairing), so a bounded module memo maps that structure
to the minimal leaf's ordering, its slot choice and its hit count; a graph
whose structure was canonicalised before skips refinement and search and
only encodes that one ordering under that one choice.  See ``_MEMO`` for the
key, the value and the bound.

``XGraph(...)`` checks the wiring and the pairing.  The operations that
rebuild a graph from parts of valid graphs (products, traces, derivations,
substitutions, relabellings and canonical forms) use ``XGraph._trusted``,
which skips those checks and keeps only the vertex limit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass


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


_TYPE_UIDS = itertools.count()


@dataclass(frozen=True)
class GeneratorType:
    """A generator with native input/output slots.

    Each side's slots are either all interchangeable (``symmetric_in`` /
    ``symmetric_out``) or not at all: the Christoffel symbol is symmetric in
    its two inputs, the merged noise pair in its two outputs.
    """

    name: str
    in_arity: int
    out_arity: int
    symmetric_in: bool = False
    symmetric_out: bool = False

    def __post_init__(self):
        def perms(n, symmetric):
            ident = tuple(range(1, n + 1))
            return tuple(itertools.permutations(ident)) if symmetric else (ident,)

        group = tuple(itertools.product(perms(self.in_arity, self.symmetric_in),
                                        perms(self.out_arity, self.symmetric_out)))
        object.__setattr__(self, "_group", group)
        # Tells this type apart from every other one in ``XGraph._memo_key``.
        object.__setattr__(self, "_uid", next(_TYPE_UIDS))

    def __reduce__(self):
        # A copy, in this process or another, is built anew with its own id.
        return GeneratorType, (self.name, self.in_arity, self.out_arity,
                               self.symmetric_in, self.symmetric_out)

    @property
    def slot_group(self):
        """All (in_perm, out_perm) pairs; the identity pair comes first."""
        return self._group

    def in_orbit(self, j):
        return 1 if self.symmetric_in else j

    def out_orbit(self, j):
        return 1 if self.symmetric_out else j

    def __repr__(self):
        return f"GeneratorType({self.name!r}, {self.in_arity}, {self.out_arity})"


def _is_out_slot(src, l, types):
    a, j = src
    if a == "l":
        return 1 <= j <= l
    return isinstance(a, int) and 0 <= a < len(types) and 1 <= j <= types[a].out_arity


def _check_wiring(u, l, types, wiring):
    # The domain is checked slot by slot and then counted, without building
    # the set of all output slots, so a huge ``l`` costs no memory.
    extra = next((src for src in wiring if not _is_out_slot(src, l, types)), None)
    if extra is not None or len(wiring) != l + sum(t.out_arity for t in types):
        raise StructureError("wiring domain does not match the output slot set",
                             extra)
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


# The largest graph ``XGraph`` and ``XGraph._trusted`` accept, which bounds
# canonicalisation time; a product of two valid graphs can exceed it.  Colour
# classes with few automorphisms were the slowest canonicalisations: without
# the search's prefix bound a directed cycle of n noises searched (n-1)!
# orderings, 6-10 s at n = 10 and 2-3 s for two 5-cycles; with it each
# takes under 1 ms, measured on a 2-vCPU x86-64 host under CPython 3.11 (the
# paired 8-leaf star, with 384 automorphisms, takes 2-5 ms).
# ``XGraph._wl_colors`` packs colour ranks, which stay below
# this limit, as one decimal digit: raising it needs a wider code there and
# regenerated golden files.
MAX_VERTICES = 10


def _packed(ints):
    """``ints`` as ``bytes`` when all lie in 0..255, else as a tuple."""
    try:
        return bytes(ints)
    except ValueError:
        return tuple(ints)


# Canonicalisation memo: ``XGraph._memo_key()`` -> (packed leaf,
# automorphism count).  The packed leaf is the minimal leaf's vertex
# ordering followed by its slot choice, per vertex the index of its
# (in, out) permutation pair in the type's ``slot_group``, as ``bytes`` (a
# tuple if an index passes 255).  The key spells out the degree, a
# per-object id of each vertex type, the pairs and the wiring edges in dict
# order, so equal keys mean equal raw structures; the same structure wired
# in another insertion order only misses.  It is exact because the minimal
# encoding, the ordering the search keeps and the hit count depend on the
# raw structure alone.  The value is a leaf rather than the canonical graph:
# the graph is rebuilt by encoding that ordering under that one slot choice,
# so an entry holds a key of some 40 bytes, the packed leaf and the count
# (about 240 bytes in all, with the dict's share) and no graph, and a hit
# takes its types from the graph at hand.  When full, the memo is cleared;
# at 1 << 14 entries it holds about 4 MB, and `gshe check --suite talgebra`
# at 500 cases, the largest user of it, fills about 12,000.
_MEMO = {}
_MEMO_CAP = 1 << 14


class XGraph:
    """Immutable decorated graph; hashes and compares by canonical form."""

    # ``_canon`` is None until canonicalised, then (canonical graph, or None
    # when this graph is its own canonical form, aut count, canonical key,
    # hash of the key).  String hashes are salted per interpreter, so a copy
    # (``__reduce__``) starts with ``_canon`` None.
    __slots__ = ("u", "l", "types", "wiring", "pairing", "_canon")

    def __init__(self, u, l, types, wiring, pairing=()):
        wiring = dict(wiring)
        types = tuple(types)
        if len(types) > MAX_VERTICES:
            raise ValueError(f"{len(types)} vertices, more than {MAX_VERTICES}")
        if u < 0 or l < 0:
            raise StructureError(f"negative degree u={u} l={l}")
        _check_wiring(u, l, types, wiring)
        pset = set()
        seen = set()
        for p in map(frozenset, pairing):
            if p in pset:
                raise PairingError(f"repeated pair {sorted(p)}", p)
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

    @classmethod
    def _trusted(cls, u, l, types, wiring, pairing):
        """A graph built from the parts of valid graphs, without checks.

        The caller vouches for the wiring and the pairing (a set of
        2-element frozensets) and hands over ``wiring``, which it must not
        change afterwards.  Only the vertex limit is checked, since a
        product of two valid graphs can exceed it.
        """
        types = tuple(types)
        if len(types) > MAX_VERTICES:
            raise ValueError(f"{len(types)} vertices, more than {MAX_VERTICES}")
        g = object.__new__(cls)
        g.u = u
        g.l = l
        g.types = types
        g.wiring = wiring
        g.pairing = frozenset(pairing)
        g._canon = None
        return g

    def __reduce__(self):
        return XGraph._trusted, (self.u, self.l, self.types, self.wiring,
                                 self.pairing)

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
        # Peel vertices with no incoming edge; a cycle is what never peels.
        indeg = [0] * n
        for ws in adj.values():
            for w in ws:
                indeg[w] += 1
        todo = [v for v in range(n) if not indeg[v]]
        peeled = 0
        while todo:
            peeled += 1
            for w in adj[todo.pop()]:
                indeg[w] -= 1
                if not indeg[w]:
                    todo.append(w)
        return peeled < n

    # -- canonicalisation --------------------------------------------------

    def _edges(self):
        """The wiring as (source, slot, target, slot) tuples, -1 naming the
        external side: one pass over the dict per canonicalisation."""
        return [(-1 if a == "l" else a, j, -1 if b == "u" else b, k)
                for (a, j), (b, k) in self.wiring.items()]

    def _wl_colors(self, edges):
        """Iterated refinement of isomorphism-invariant vertex colours.

        A vertex's first colour is the rank of (type name, sorted external
        slots) among the vertices' first colours, in ``repr`` order.  Each
        round ranks the pairs (colour, sorted neighbour list), where a
        neighbour entry (kind, out orbit, in orbit, neighbour colour) is
        packed as the int ``1000 kind + 100 oa + 10 ob + colour``.  Every
        field is one digit: kinds are 0-2, orbits are at most the generators'
        arities (at most 9) and colours are ranks below ``MAX_VERTICES``
        (10), so the packed order is the entries' tuple order.

        The ranks equal those of ranking the nested tuples by ``repr``, the
        order the canonical forms and the golden files were first made with
        (the search's block order comes from them).  For one-digit fields
        ``repr`` order is tuple order except where one neighbour list is a
        prefix of another, and the list's sort key covers those cases:

        - two or more entries: the tuple of codes, so a shorter prefix sorts
          first (``)`` sorts below ``,``);
        - one entry: ``(code, 10000)``, so a longer list with the same first
          entry sorts first (the ``,)`` of a 1-tuple sorts above ``, ``);
        - no entry: ``(9999,)``, after every non-empty list (``(`` sorts
          below ``)``).

        Colours of 10 or more would break both the packing and these rules,
        so a larger ``MAX_VERTICES`` needs a wider code and regenerated
        golden files.
        """
        n = self.n_vertices
        types = self.types
        ext = [[] for _ in range(n)]
        inner = []
        for a, ja, b, jb in edges:
            ob = 0 if jb == 0 or b < 0 else types[b].in_orbit(jb)
            if a < 0:
                ext[b].append((1, ja, ob))
            elif b < 0:
                ext[a].append((0, jb, types[a].out_orbit(ja)))
            else:
                oa = types[a].out_orbit(ja)
                inner.append((a, 100 * oa + 10 * ob, b, 1000 + 100 * ob + 10 * oa))
        pairs = [sorted(p) for p in self.pairing]
        first = [(types[v].name, tuple(sorted(ext[v]))) for v in range(n)]
        ranked = {c: i for i, c in enumerate(sorted(set(first), key=repr))}
        colors = [ranked[c] for c in first]
        n_colors = len(ranked)
        for _ in range(n):
            nbrs = [[] for _ in range(n)]
            for a, code_a, b, code_b in inner:
                nbrs[a].append(code_a + colors[b])
                nbrs[b].append(code_b + colors[a])
            for a, b in pairs:
                nbrs[a].append(2000 + colors[b])
                nbrs[b].append(2000 + colors[a])
            new = []
            for c, codes in zip(colors, nbrs):
                codes.sort()
                new.append((c, tuple(codes) if len(codes) > 1
                            else (codes[0], 10000) if codes else (9999,)))
            ranked = {c: i for i, c in enumerate(sorted(set(new)))}
            colors = [ranked[c] for c in new]
            if len(ranked) == n_colors:
                return colors
            n_colors = len(ranked)
        return colors

    def _encode(self, edges, order, choices):
        """The serialisation of the graph under the vertex ordering
        ``order``, one per slot choice (a per-vertex (in, out) permutation
        pair) in ``choices``."""
        pos = [0] * len(order)
        for i, v in enumerate(order):
            pos[v] = i
        names = tuple(self.types[v].name for v in order)
        pairs = tuple(sorted(tuple(sorted(pos[v] for v in p)) for p in self.pairing))
        out = []
        for choice in choices:
            entries = sorted([
                ((-1, ja) if a < 0 else (pos[a], choice[a][1][ja - 1]),
                 (-1, jb) if b < 0 else (pos[b], choice[b][0][jb - 1] if jb else 0))
                for a, ja, b, jb in edges])
            out.append((names, tuple(entries), pairs))
        return out

    def canonicalize(self):
        """Return (canonical graph, automorphism count).

        Minimises ``_encode`` over (ordering, slot choice) pairs, where the
        orderings respect the refined colours, and counts the pairs that
        reach the minimum: that count is the order of the automorphism
        group.  ``_search`` walks the orderings as a tree of prefixes and
        skips every subtree that a found automorphism maps onto one it has
        already explored, taking that subtree's (minimum, hits) instead, and
        every subtree whose ``_PrefixBound`` exceeds the best leaf found.
        Refined colours that are all distinct leave a single ordering, the
        search's one leaf, which is encoded without the tree.  A raw
        structure found in ``_MEMO`` skips refinement and search: its stored
        ordering, under its stored slot choice, gives the minimum, and the
        product of the slot choices is built only on a miss.  The wiring is
        read once, into ``_edges()``, for the memo key, the refinement and
        every encoding.
        """
        if self._canon is not None:
            g, hits = self._canon[:2]
            return (self if g is None else g), hits
        n = len(self.types)
        edges = self._edges()
        memo_key = self._memo_key(edges)
        known = _MEMO.get(memo_key)
        if known is None:
            choices = list(itertools.product(*(t.slot_group for t in self.types)))
            by_color = {}
            for v, c in enumerate(self._wl_colors(edges)):
                by_color.setdefault(c, []).append(v)
            if len(by_color) == n:
                # Discrete colours: the search's one leaf, without the tree.
                order = [by_color[c][0] for c in sorted(by_color)]
                encs = self._encode(edges, order, choices)
                best = min(encs)
                hits = encs.count(best)
                choice = choices[encs.index(best)]
            else:
                classes = [by_color[c] for c in sorted(by_color) for _ in by_color[c]]
                state = [None, None, None, [], None]
                encode = functools.partial(self._encode, edges, choices=choices)
                make_bound = functools.partial(_PrefixBound, self, edges, classes)
                best, hits = _search(encode, make_bound, classes, [], state)
                order, choice = state[1], choices[state[2]]
            packed = _packed(list(order) + [t.slot_group.index(c)
                                            for t, c in zip(self.types, choice)])
            if len(_MEMO) >= _MEMO_CAP:
                _MEMO.clear()
            _MEMO[memo_key] = packed, hits
        else:
            packed, hits = known
            order = packed[:n]
            choice = tuple(t.slot_group[i] for t, i in zip(self.types, packed[n:]))
            best = self._encode(edges, order, (choice,))[0]
        _, entries, pairs = best
        g = XGraph._trusted(
            self.u, self.l, [self.types[v] for v in order],
            {(("l", s[1]) if s[0] == -1 else s): (("u", d[1]) if d[0] == -1 else d)
             for s, d in entries},
            map(frozenset, pairs))
        key = (self.u, self.l, best)
        h = hash(key)
        # None, not g itself: a self-reference would leave every dropped
        # canonical graph to the cyclic garbage collector.
        g._canon = (None, hits, key, h)
        self._canon = (g, hits, key, h)
        return g, hits

    def _memo_key(self, edges):
        """The raw structure as one ``_MEMO`` key.

        The integers u, l, the vertex and pair counts, each type's id, the
        pairs {a < b} as sorted codes a n + b (n vertices), and each of
        ``_edges()`` as (source, its slot, target, its slot), where 0 names
        the external side and v + 1 vertex v.  The counts fix where each part
        ends, so distinct structures give distinct sequences; ``bytes``
        holds them when all are below 256, a tuple otherwise.
        """
        n = len(self.types)
        key = [self.u, self.l, n, len(self.pairing)]
        key += [t._uid for t in self.types]
        key += sorted(min(p) * n + max(p) for p in self.pairing)
        for a, j, b, k in edges:
            key += (a + 1, j, b + 1, k)
        return _packed(key)

    def canonical_key(self):
        if self._canon is None:
            self.canonicalize()
        return self._canon[2]

    def aut_count(self):
        return self.canonicalize()[1]

    def __eq__(self, other):
        if not isinstance(other, XGraph):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        if self._canon is None:
            self.canonicalize()
        return self._canon[3]

    def __repr__(self):
        names = ",".join(t.name for t in self.types)
        return f"XGraph(({self.u},{self.l}) [{names}] {len(self.pairing)}p)"


class _Unwind(Exception):
    """A leaf tied the best leaf; ``args[0]`` is the depth to unwind to."""


class _PrefixBound:
    """A lower bound on the encodings of every leaf below an ordering prefix,
    compared with the best leaf's encoding ``best`` (``set_best``).

    Every leaf has the same vertex names and the same sorted sources (the
    external lows, then each position's out slots), so its entries are one
    target per source, in a fixed source order, and only the targets vary.
    Each target is bounded below by (position, slot): a placed vertex's
    position, and for an unplaced one max(k, the first position of its
    colour class), k being the prefix length; the slot is 0 for a star,
    1 for a symmetric input and the input itself otherwise.  A source
    vertex with symmetric outputs takes its targets' bounds sorted, and the
    unfilled positions of a class take the sorted blocks of its unplaced
    members.  The pairs are bounded as sorted (min, max) position bounds.
    Each bound is no larger than the value of any leaf below, so the whole
    is a lexicographic lower bound on the encodings.
    """

    __slots__ = ("low", "out", "sym", "sym_spans", "first", "classes",
                 "pairs", "best_targets", "best_pairs")

    def __init__(self, graph, edges, classes, best):
        types = graph.types
        low = {}
        out = [[None] * t.out_arity for t in types]
        for a, ja, b, jb in edges:
            # b == -1 (an external up slot) reads position -1 in ``exceeds``.
            slot = jb if b < 0 or not (jb and types[b].symmetric_in) else 1
            if a < 0:
                low[ja] = (b, slot)
            else:
                out[a][ja - 1] = (b, slot)
        self.low = [low[j] for j in sorted(low)]
        self.out = out
        self.sym = [t.symmetric_out for t in types]
        # (position, start, stop) of each symmetric-out block of the targets
        self.sym_spans = []
        first = {}
        start = len(self.low)
        for i, cls in enumerate(classes):
            for v in cls:
                first.setdefault(v, i)
            t = types[cls[0]]
            if t.symmetric_out:
                self.sym_spans.append((i, start, start + t.out_arity))
            start += t.out_arity
        self.first = [first[v] for v in range(len(types))]
        self.classes = classes
        self.pairs = [tuple(p) for p in graph.pairing]
        self.set_best(best)

    def set_best(self, best):
        self.best_targets = [d for _, d in best[1]]
        self.best_pairs = list(best[2])

    def exceeds(self, order):
        """Whether the bound below the prefix ``order`` is strictly greater
        than the best encoding.  The targets of the external lows and the
        placed positions decide most calls, so they are compared first."""
        k = len(order)
        pos = [f if f > k else k for f in self.first]
        for i, v in enumerate(order):
            pos[v] = i
        pos.append(-1)
        out = self.out
        bound = [(pos[b], slot) for b, slot in self.low]
        bound += [(pos[b], slot) for v in order for b, slot in out[v]]
        for i, start, stop in self.sym_spans:
            if i >= k:
                break
            bound[start:stop] = sorted(bound[start:stop])
        targets = self.best_targets
        head = targets[:len(bound)]
        if bound != head:
            return bound > head
        sym = self.sym
        classes = self.classes
        i = k
        while i < len(classes):
            blocks = []
            for v in classes[i]:
                if pos[v] >= k:
                    blk = [(pos[b], slot) for b, slot in out[v]]
                    blocks.append(sorted(blk) if sym[v] else blk)
            blocks.sort()
            for blk in blocks:
                bound += blk
            i += len(blocks)
        if bound != targets:
            return bound > targets
        return sorted((x, y) if x < y else (y, x) for x, y in
                      ((pos[a], pos[b]) for a, b in self.pairs)) > self.best_pairs


def _search(encode, make_bound, classes, order, state):
    """(Minimal encoding, hits) over the leaves below the prefix ``order``.

    ``encode(order)`` lists the graph's encodings under every slot choice.
    ``make_bound(best)`` builds the graph's ``_PrefixBound``.  ``classes[i]``
    is the colour class that fills position i.  ``state`` is [best
    encoding, best leaf's ordering, the index of its slot choice in
    ``encode``'s list, found automorphisms as vertex maps, the bound or
    None], shared by the whole search.

    A leaf tries every slot choice.  A leaf that ties the best leaf gives an
    automorphism, ``best_order[i] -> order[i]``, which fixes their common
    prefix and maps the best leaf's subtree at the first position ``k``
    where they part onto this leaf's: both hold the same encodings.  So the
    search unwinds to depth ``k`` and gives the current child the result
    recorded for the best leaf's child.  Likewise a child in the orbit of
    an explored sibling, under the found automorphisms that fix the prefix,
    takes that sibling's result.

    The first leaf that comes out worse than the best one builds the bound;
    from then on every child whose prefix bound is strictly greater than
    the best encoding is skipped, since no leaf below it can reach the
    minimum, and takes (best, 0 hits).  A search whose leaves all tie (twins
    only) builds no bound.  Each reuse and each skip is exact, so the
    minimum and the hits equal those of the full search.
    """
    depth = len(order)
    if depth == len(classes):
        encs = encode(order)
        low = min(encs)
        hits = encs.count(low)
        best, best_order, _, autos, bound = state
        if best is None or low < best:
            state[:3] = low, list(order), encs.index(low)
            if bound is not None:
                bound.set_best(low)
        elif low == best:
            autos.append(dict(zip(best_order, order)))
            raise _Unwind(next(i for i, (a, b) in enumerate(zip(best_order, order))
                               if a != b))
        elif bound is None:
            state[4] = make_bound(best)
        return low, hits
    autos = state[3]
    # Automorphisms found below this node fix its prefix: an unwind past
    # this node would have ended it.
    gens = [a for a in autos if all(a[w] == w for w in order)]
    known = len(autos)
    done = {}
    for v in classes[depth]:
        if v in order:
            continue
        gens += autos[known:]
        known = len(autos)
        orbit, todo = {v}, [v]
        while todo and gens:
            w = todo.pop()
            for a in gens:
                if a[w] not in orbit:
                    orbit.add(a[w])
                    todo.append(a[w])
        match = next((s for s in done if s in orbit), None)
        if match is not None:
            done[v] = done[match]
            continue
        order.append(v)
        try:
            # A leaf child is encoded without a bound check: its bound is
            # nearly its encoding, so the check seldom saves what it costs.
            if (state[4] is not None and depth + 1 < len(classes)
                    and state[4].exceeds(order)):
                done[v] = state[0], 0
            else:
                done[v] = _search(encode, make_bound, classes, order, state)
        except _Unwind as exc:
            if exc.args[0] != depth:
                raise
            done[v] = done[state[1][depth]]
        finally:
            order.pop()
    low = min(m for m, _ in done.values())
    return low, sum(h for m, h in done.values() if m == low)


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
            if u is not None:
                raise ParseError(lineno, "second 'xgraph' header in one block")
            if (len(parts) != 3 or not parts[1].startswith("u=")
                    or not parts[2].startswith("l=")):
                raise ParseError(lineno, "expected 'xgraph u=<U> l=<L>'")
            u, l = _ints([parts[1][2:], parts[2][2:]], lineno, "degree")
            if u < 0 or l < 0:
                raise ParseError(lineno, f"negative degree u={u} l={l}")
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
            pairing.append(pair)
            pair_lines[frozenset(pair)] = lineno
    if u is None:
        raise ParseError(offset + 1, "missing 'xgraph' header")
    # An error naming one edge or pair is reported at its line (a repeated
    # pair at its last), any other at the block's first line.
    try:
        return XGraph(u, l, types, wiring, pairing)
    except StructureError as exc:
        raise ParseError(edge_lines.get(exc.src, offset + 1), str(exc)) from exc
    except PairingError as exc:
        raise ParseError(pair_lines.get(exc.pair, offset + 1), str(exc)) from exc
