"""Outside-in tracing of the gshe layers.

The tracer wraps public functions and methods of the package from outside.
Every module-level binding of a wrapped function is replaced, including the
copies that ``from ... import`` made in other modules and the values of
module-level dicts such as ``checks.SUITES``; methods are replaced on their
class.  Each call records a span (name, start, end, parent) in flat arrays
kept in memory, and per-name aggregates are folded in as spans close:
calls, self time (duration minus the durations of wrapped children), the
longest span, and the inclusive time of the outermost spans of each group
of names (a name is its own group unless given one).

The package never imports this module; an untraced run never loads it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

_perf = time.perf_counter


def _bits(x):
    """Largest bit length of the numerator or denominator of a rational."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return 0


def _matrix_bits(rows):
    return max((_bits(x) for row in rows for x in row), default=0)


def _tensor_bits(tensor):
    return max((_bits(v) for jet in tensor.comps.values()
                for v in jet.coeffs.values()), default=0)


class Tracer:
    """Span recorder; one instance per traced interpreter."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []          # open spans: [span index, child time]
        self.stats = []          # per name: [calls, self_s, max_s]
        self.depth = []          # per name: open spans of that name
        self.group_of = []       # per name: the group its outer time joins
        self.group_depth = {}
        self.group_s = {}
        self.counters = {}

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def _name_id(self, name, group):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self.name_ids[name] = nid
            self.stats.append([0, 0.0, 0.0])
            self.depth.append(0)
            group = group or name
            self.group_of.append(group)
            self.group_depth.setdefault(group, 0)
            self.group_s.setdefault(group, 0.0)
        return nid

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self.stack.append(frame)
        self.depth[nid] += 1
        self.group_depth[self.group_of[nid]] += 1
        return frame

    def _close(self, nid, frame, t0, t1):
        self.stack.pop()
        group = self.group_of[nid]
        self.depth[nid] -= 1
        self.group_depth[group] -= 1
        dur = t1 - t0
        idx = frame[0]
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        if self.stack:
            self.stack[-1][1] += dur
        st = self.stats[nid]
        st[0] += 1
        st[1] += dur - frame[1]
        if dur > st[2]:
            st[2] = dur
        if self.group_depth[group] == 0:
            self.group_s[group] += dur
        return self.depth[nid] == 0

    def wrap(self, fn, name, group=None, before=None, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``before(args)`` runs ahead of the span; its result is handed to
        ``after(args, result, token, outermost)``, which runs after the span
        closes.  Neither hook is part of any span.
        """
        nid = self._name_id(name, group)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = open_(nid)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                outermost = close(nid, frame, t0, _perf())
            if after is not None:
                after(args, result, token, outermost)
            return result

        return traced

    @contextlib.contextmanager
    def stage(self, name):
        """A span around a block of the workload itself."""
        nid = self._name_id(name, None)
        frame = self._open(nid)
        t0 = _perf()
        try:
            yield
        finally:
            self._close(nid, frame, t0, _perf())

    def calls(self, name):
        nid = self.name_ids.get(name)
        return 0 if nid is None else self.stats[nid][0]

    def self_s(self, name):
        nid = self.name_ids.get(name)
        return 0.0 if nid is None else self.stats[nid][1]

    def max_s(self, name):
        nid = self.name_ids.get(name)
        return 0.0 if nid is None else self.stats[nid][2]

    def group_time(self, group):
        """Inclusive time of the outermost spans of a group of names."""
        return self.group_s.get(group, 0.0)

    def n_spans(self):
        return len(self.span_name)

    def write(self, path, meta):
        """Write every span, the name table and ``meta`` to ``path`` (.npz)."""
        np.savez(path,
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 names=np.array(json.dumps(self.names)),
                 meta=np.array(json.dumps(meta)))


# -- what gets wrapped ---------------------------------------------------------

# Module-level functions: (module, attribute, span name, group).  A group
# sums the outermost spans of its members into one inclusive time.
FUNCTIONS = [
    ("gshe.graphs", "parse_graph", "graphs.parse_graph", None),
    ("gshe.graphs", "format_graph", "graphs.format_graph", None),
    ("gshe.algebra", "product", "algebra.product", None),
    ("gshe.algebra", "trace", "algebra.trace", None),
    ("gshe.algebra", "derive", "algebra.derive", None),
    ("gshe.algebra", "act", "algebra.act", None),
    ("gshe.algebra", "graft", "algebra.graft", None),
    ("gshe.algebra", "inner", "algebra.inner", None),
    ("gshe.algebra", "coproduct", "algebra.coproduct", None),
    ("gshe.algebra", "decompose", "algebra.decompose", None),
    ("gshe.morphisms", "phi_hat_geo", "morphisms.phi_hat_geo", None),
    ("gshe.morphisms", "phi_geo", "morphisms.phi_geo", None),
    ("gshe.morphisms", "p_ito", "morphisms.p_ito", None),
    ("gshe.morphisms", "m_ito", "morphisms.m_ito", None),
    ("gshe.morphisms", "M_ito", "morphisms.M_ito", None),
    ("gshe.morphisms", "tau_star", "morphisms.tau_star", "morphisms.tau"),
    ("gshe.morphisms", "tau_c", "morphisms.tau_c", "morphisms.tau"),
    ("gshe.subspaces", "rref", "subspaces.rref", None),
    ("gshe.subspaces", "dimension_report", "subspaces.dimension_report", None),
    ("gshe.symbols", "iota_expand", "symbols.iota_expand", None),
    ("gshe.symbols", "full_basis", "symbols.full_basis", None),
    ("gshe.jets", "curvature_counterterm", "jets.curvature_counterterm",
     "jets.oracles"),
    ("gshe.jets", "gradient_counterterm", "jets.gradient_counterterm",
     "jets.oracles"),
    ("gshe.jets", "levi_civita", "jets.levi_civita", "jets.oracles"),
    ("gshe.checks", "suite_talgebra", "checks.suite.talgebra", None),
    ("gshe.checks", "suite_adjoint", "checks.suite.adjoint", None),
    ("gshe.checks", "suite_identities", "checks.suite.identities", None),
    ("gshe.checks", "suite_jets", "checks.suite.jets", None),
    ("gshe.randgraphs", "random_graph", "randgraphs.random_graph", None),
    ("gshe.renorm", "she_simulate", "renorm.she_simulate", None),
    ("gshe.renorm", "sphere_simulate", "renorm.sphere_simulate", None),
    ("gshe.renorm", "cbar_estimate", "renorm.cbar_estimate", None),
    ("gshe.renorm", "k3_integral", "renorm.k3_integral", None),
    ("gshe.renorm", "ou_loop_mc", "renorm.ou_loop_mc", None),
    ("gshe.renorm", "p3_identity", "renorm.p3_identity", None),
    ("gshe.cli", "main", "cli.main", None),
]

# Methods, replaced on their class: (module, class, method, span name).
METHODS = [
    ("gshe.graphs", "XGraph", "canonicalize", "graphs.canonicalize"),
    ("gshe.graphs", "XGraph", "__init__", "graphs.XGraph.init"),
    ("gshe.algebra", "LinComb", "__add__", "algebra.LinComb.add"),
    ("gshe.jets", "Jet", "__mul__", "jets.Jet.mul"),
    ("gshe.jets", "Jet", "__add__", "jets.Jet.add"),
    ("gshe.jets", "TensorJet", "derive", "jets.TensorJet.derive"),
    ("gshe.jets", "TensorJet", "contract_lower",
     "jets.TensorJet.contract_lower"),
    ("gshe.jets", "TensorJet", "product", "jets.TensorJet.product"),
    ("gshe.jets", "TensorJet", "act", "jets.TensorJet.act"),
    ("gshe.jets", "TensorJet", "trace", "jets.TensorJet.trace"),
    ("gshe.jets", "Valuation", "__call__", "jets.Valuation.call"),
]

# numpy's transforms as renorm reaches them, through ``np.fft.<name>``.
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")


def _rebind(original, replacement, modules):
    """Replace every module-level reference to ``original``; returns count."""
    hits = 0
    for mod in modules:
        space = vars(mod)
        for key, value in list(space.items()):
            if value is original:
                space[key] = replacement
                hits += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        hits += 1
    return hits


def _hooks(tracer):
    """Work counters, keyed by span name: name -> (before, after)."""
    jet_cls = sys.modules["gshe.jets"].Jet

    def canon_before(args):
        return args[0]._canon is None

    def canon_after(args, result, cold, outer):
        if cold:
            tracer.count("graphs.canonicalize.cold_calls")

    def terms_after(key):
        def after(args, result, token, outer):
            tracer.count(key, len(result))
        return None, after

    def rref_after(args, result, token, outer):
        mat = args[0]
        if mat:
            tracer.peak("subspaces.rref.max_rows", len(mat))
            tracer.peak("subspaces.rref.max_cols", len(mat[0]))
            tracer.peak("subspaces.rref.max_bits",
                        max(_matrix_bits(mat), _matrix_bits(result[0])))

    def mul_after(args, result, token, outer):
        a, b = args
        if isinstance(b, jet_cls):
            tracer.count("jets.Jet.mul.monomial_pairs",
                         len(a.coeffs) * len(b.coeffs))

    def bits_after(args, result, token, outer):
        if outer:
            tracer.peak("jets.coeff_max_bits", _tensor_bits(result))

    def cases_after(args, result, token, outer):
        tracer.count("checks.cases", sum(c for _, c, _ in result))

    def fft_after(args, result, token, outer):
        tracer.count("renorm.fft.calls")
        tracer.count("renorm.fft.points", int(result.size))
        tracer.count("renorm.fft.bytes_computed",
                     int(np.asarray(args[0]).nbytes) + int(result.nbytes))

    hooks = {
        "graphs.canonicalize": (canon_before, canon_after),
        "algebra.LinComb.add": terms_after("algebra.LinComb.terms_out"),
        "symbols.iota_expand": terms_after("symbols.iota_expand.terms_out"),
        "subspaces.rref": (None, rref_after),
        "jets.Jet.mul": (None, mul_after),
        "jets.Valuation.call": (None, bits_after),
        "jets.curvature_counterterm": (None, bits_after),
        "jets.gradient_counterterm": (None, bits_after),
        "jets.levi_civita": (None, bits_after),
        "renorm.fft": (None, fft_after),
    }
    for name in ("talgebra", "adjoint", "identities", "jets"):
        hooks[f"checks.suite.{name}"] = (None, cases_after)
    return hooks


def install(tracer, extra_modules=()):
    """Wrap every layer boundary; returns the span names installed.

    Every gshe module must already be imported.  ``extra_modules`` (the
    benchmark's own workload module) are scanned for bindings as well.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "gshe" or n.startswith("gshe.")]
    modules += list(extra_modules)
    hooks = _hooks(tracer)
    installed = []
    for modname, attr, name, group in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        before, after = hooks.get(name, (None, None))
        wrapper = tracer.wrap(original, name, group, before, after)
        if not _rebind(original, wrapper, modules):
            raise RuntimeError(f"no binding of {modname}.{attr} to wrap")
        installed.append(name)
    for modname, cls, meth, name in METHODS:
        klass = getattr(sys.modules[modname], cls)
        before, after = hooks.get(name, (None, None))
        setattr(klass, meth, tracer.wrap(getattr(klass, meth), name,
                                         before=before, after=after))
        installed.append(name)
    before, after = hooks["renorm.fft"]
    for fname in FFT_FUNCTIONS:
        setattr(np.fft, fname, tracer.wrap(getattr(np.fft, fname),
                                           f"renorm.fft.{fname}",
                                           "renorm.fft", before, after))
        installed.append(f"renorm.fft.{fname}")
    return installed


# -- per-layer metrics ----------------------------------------------------------

def _self(name):
    return lambda t: t.self_s(name)


def _calls(name):
    return lambda t: t.calls(name)


def _outer(group):
    return lambda t: t.group_time(group)


def _counter(key):
    return lambda t: t.counters.get(key, 0)


# (metric, unit, how the traced round computes it).  Metrics with no rule
# here come from elsewhere: set-up from the child's own clock, output bytes
# from the workload's gate, tracing overhead from the runner.
LAYER_METRICS = [
    ("graphs.canonicalize.calls", "count", _calls("graphs.canonicalize")),
    ("graphs.canonicalize.cold_calls", "count",
     _counter("graphs.canonicalize.cold_calls")),
    ("graphs.canonicalize.self_s", "s", _self("graphs.canonicalize")),
    ("graphs.canonicalize.max_ms", "ms",
     lambda t: 1000.0 * t.max_s("graphs.canonicalize")),
    ("graphs.XGraph.init.self_s", "s", _self("graphs.XGraph.init")),
    ("graphs.parse_graph.self_s", "s", _self("graphs.parse_graph")),
    ("graphs.format_graph.self_s", "s", _self("graphs.format_graph")),
]
LAYER_METRICS += [(f"algebra.{op}.self_s", "s", _self(f"algebra.{op}"))
                  for op in ("product", "trace", "derive", "act", "graft",
                             "inner", "coproduct", "decompose")]
LAYER_METRICS += [
    ("algebra.LinComb.add.calls", "count", _calls("algebra.LinComb.add")),
    ("algebra.LinComb.terms_out", "count",
     _counter("algebra.LinComb.terms_out")),
]
LAYER_METRICS += [(f"morphisms.{op}.self_s", "s", _self(f"morphisms.{op}"))
                  for op in ("phi_hat_geo", "phi_geo", "p_ito", "m_ito",
                             "M_ito")]
LAYER_METRICS += [
    ("morphisms.tau.s", "s", _outer("morphisms.tau")),
    ("subspaces.rref.calls", "count", _calls("subspaces.rref")),
    ("subspaces.rref.self_s", "s", _self("subspaces.rref")),
    ("subspaces.rref.max_rows", "count", _counter("subspaces.rref.max_rows")),
    ("subspaces.rref.max_cols", "count", _counter("subspaces.rref.max_cols")),
    ("subspaces.rref.max_bits", "bits", _counter("subspaces.rref.max_bits")),
    ("subspaces.dimension_report.s", "s",
     _outer("subspaces.dimension_report")),
    ("symbols.iota_expand.calls", "count", _calls("symbols.iota_expand")),
    ("symbols.iota_expand.self_s", "s", _self("symbols.iota_expand")),
    ("symbols.iota_expand.terms_out", "count",
     _counter("symbols.iota_expand.terms_out")),
    ("symbols.full_basis.s", "s", _outer("symbols.full_basis")),
    ("jets.Jet.mul.calls", "count", _calls("jets.Jet.mul")),
    ("jets.Jet.mul.self_s", "s", _self("jets.Jet.mul")),
    ("jets.Jet.mul.monomial_pairs", "count",
     _counter("jets.Jet.mul.monomial_pairs")),
    ("jets.Jet.add.self_s", "s", _self("jets.Jet.add")),
]
LAYER_METRICS += [(f"jets.TensorJet.{op}.self_s", "s",
                   _self(f"jets.TensorJet.{op}"))
                  for op in ("derive", "contract_lower", "product", "act",
                             "trace")]
LAYER_METRICS += [
    ("jets.Valuation.call.s", "s", _outer("jets.Valuation.call")),
    ("jets.oracles.s", "s", _outer("jets.oracles")),
    ("jets.coeff_max_bits", "bits", _counter("jets.coeff_max_bits")),
    ("jets.stage.identities.s", "s", _outer("jets.stage.identities")),
    ("jets.stage.full_jet.s", "s", _outer("jets.stage.full_jet")),
]
LAYER_METRICS += [(f"checks.suite.{name}.s", "s", _outer(f"checks.suite.{name}"))
                  for name in ("talgebra", "adjoint", "identities", "jets")]
LAYER_METRICS += [
    ("checks.cases", "count", _counter("checks.cases")),
    ("randgraphs.random_graph.self_s", "s", _self("randgraphs.random_graph")),
]
LAYER_METRICS += [(f"renorm.{fn}.s", "s", _outer(f"renorm.{fn}"))
                  for fn in ("she_simulate", "sphere_simulate",
                             "cbar_estimate", "k3_integral", "ou_loop_mc",
                             "p3_identity")]
LAYER_METRICS += [
    ("renorm.fft.calls", "count", _counter("renorm.fft.calls")),
    ("renorm.fft.points", "count", _counter("renorm.fft.points")),
    ("renorm.fft.bytes_computed", "bytes",
     _counter("renorm.fft.bytes_computed")),
    ("cli.main.self_s", "s", _self("cli.main")),
    ("cli.output_bytes", "bytes", None),
    ("setup.import_gshe_s", "s", None),
    ("setup.import_numpy_s", "s", None),
    ("setup.inputs_s", "s", None),
    ("trace.overhead_s", "s", None),
    ("trace.spans", "count", None),
]


def layer_metrics(tracer):
    """Every metric of LAYER_METRICS that the tracer itself measures."""
    return {name: rule(tracer) for name, _, rule in LAYER_METRICS
            if rule is not None}
