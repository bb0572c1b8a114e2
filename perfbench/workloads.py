"""The four workloads: seeded inputs, the operations a round runs, the gates.

Each workload has ``build(seed, out_dir)``, which makes the round's inputs
(this is set-up, untimed by ``wall_s``), and ``run(inputs, gate)``, the
closed loop of operations, one at a time, each followed by its correctness
gates.  The program only ever sees the generated inputs: suite seeds, text
files, jets and command lines.  Program functions are reached through their
modules (``cli.main``, ``jets.Valuation`` ...) so that a traced round sees
the wrapped bindings.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import re
import resource
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from gshe import (algebra, cli, graphs, jets, morphisms, renorm, subspaces,
                  symbols)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "gshe" / "data"


def stamp():
    """(wall, cpu) now: perf_counter, and user plus system CPU time of this
    process and its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.perf_counter(),
            own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime)


class Gate:
    """Counts correctness checks and keeps one reproducer line per failure.

    ``next_op`` also stamps the clocks, so ``op_times`` gives the wall and
    CPU time of every operation of the round, its gates included.
    """

    def __init__(self, workload, seed, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.op = -1
        self.attempted = 0
        self.failures = []
        self.output_bytes = 0
        self.marks = []

    def next_op(self):
        self.op += 1
        self.marks.append(stamp())

    def op_times(self, end):
        """[(wall_s, cpu_s)] of each operation, the last one ending at the
        stamp ``end``."""
        marks = self.marks + [end]
        return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])]

    def check(self, ok, what, detail=None, graph=None):
        self.attempted += 1
        if ok:
            return
        line = (f"REPRO workload={self.workload} seed={self.seed} "
                f"op={self.op} check={what}")
        if detail is not None:
            line += f" detail={json.dumps(detail)}"
        if graph is not None:
            line += f" graph={json.dumps(graph)}"
        self.failures.append(line)

    def cli(self, argv, out_file=None):
        """Run ``gshe <argv>`` in-process; returns (status, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([str(a) for a in argv])
        self.output_bytes += len(out.getvalue().encode())
        self.output_bytes += len(err.getvalue().encode())
        if out_file is not None and Path(out_file).exists():
            self.output_bytes += Path(out_file).stat().st_size
        return status, out.getvalue()

    def stage(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.stage(name)


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


# -- symbolic: the exact layer through the command line ------------------------

SUITE_CASES = (("talgebra", 5), ("adjoint", 25), ("identities", 12))

# The paper's dimension table, as `gshe dims` names its rows.
PAPER_DIMS = {
    "dim_S": 54, "dim_S_geo": 15, "dim_S_ito": 19,
    "dim_S_geo_plus_S_ito": 32, "dim_S_geo_cap_S_ito": 2,
    "dim_S_geo_nice": 13, "dim_S_ito_nice_cap_S_geo_nice": 1,
    "dim_V_nice": 12,
}
COVARIANT_VECTORS = 15


def _scale_lincomb_text(text, factor):
    """Multiply every '<rational> * {' coefficient line of a text by factor."""
    out = []
    for line in text.splitlines():
        m = re.fullmatch(r"(\S+) \* \{", line)
        out.append(f"{Fraction(m.group(1)) * factor} * {{" if m else line)
    return "\n".join(out) + "\n"


def build_symbolic(seed, out_dir):
    rng = random.Random(seed)
    return {
        "suites": [(name, rng.randrange(2 ** 31), cases)
                   for name, cases in SUITE_CASES],
        "golden": {name: (DATA / f"{name}.txt").read_text()
                   for name in ("basis", "tau_star", "tau_c")},
    }


def run_symbolic(inp, gate):
    golden = inp["golden"]
    gate.next_op()
    status, out = gate.cli(["basis"])
    gate.check(status == 0 and out == golden["basis"], "basis_golden",
               "gshe basis")

    # The subspaces behind `gshe dims`, each filled as its own operation
    # (the cached values `gshe dims` then uses), so no single operation of
    # the round runs for much more than a second.
    for fill in (subspaces.s_geo, subspaces.s_ito, subspaces.s_nice,
                 subspaces.v_space):
        gate.next_op()
        fill()

    gate.next_op()
    status, out = gate.cli(["dims"])
    rows = _csv_rows(out)
    gate.check(status == 0 and bool(rows), "dims_status", "gshe dims")
    got = {}
    for row in rows:
        got[row["claim"]] = row["got"]
        gate.check(row["status"] == "PASS" and row["expected"] == row["got"],
                   f"dims.{row['claim']}", "gshe dims")
    for claim, want in PAPER_DIMS.items():
        gate.check(got.get(claim) == str(want), f"paper.{claim}", "gshe dims")

    for which in ("tau_star", "tau_c"):
        gate.next_op()
        status, out = gate.cli(["expand", "--which", which])
        head, _, body = out.partition("\n")
        # The golden files freeze eight times the distinguished vectors.
        gate.check(status == 0 and head == f"# {which}"
                   and _scale_lincomb_text(body, 8) == golden[which],
                   f"expand_golden.{which}", f"gshe expand --which {which}")

    gate.next_op()
    status, out = gate.cli(["expand", "--which", "V"])
    headers = re.findall(r"^# (V_\d+)$", out, re.M)
    gate.check(status == 0
               and headers == [f"V_{i}" for i in range(1, COVARIANT_VECTORS + 1)]
               and not re.search(r"^0$", out, re.M),
               "expand_V", "gshe expand --which V")

    for which in ("tau_star", "tau_c"):
        gate.next_op()
        path = f"src/gshe/data/{which}.txt"
        status, out = gate.cli(["print", "--lincomb", path])
        gate.check(status == 0 and out == golden[which],
                   f"print_golden.{which}", f"gshe print --lincomb {path}")

    # Criterion 3's worked examples of the Ito projection: a symbol whose
    # merge is one term at 1/4 is either annihilated (cyclic merge) or
    # paired half-half with a partner that phi_ito recovers.
    gate.next_op()
    found_pair = found_killed = False
    for s in symbols.full_basis():
        merged = morphisms.m_ito(algebra.LinComb.of(s))
        if len(merged) != 1:
            continue
        (g, c), = merged.items()
        if c != Fraction(1, 4):
            continue
        proj = morphisms.p_ito(algebra.LinComb.of(s))
        if not proj and g.has_directed_cycle():
            found_killed = True
        if len(proj) == 2 and set(proj.coefficients()) == {Fraction(1, 2)}:
            partner = next(h for h, _ in proj.items() if h != s)
            found_pair |= (morphisms.phi_ito(2 * merged)
                           == algebra.LinComb.of(s)
                           + algebra.LinComb.of(partner))
    gate.check(found_pair and found_killed, "ito_projection_examples")

    for name, suite_seed, cases in inp["suites"]:
        gate.next_op()
        cmd = ["check", "--suite", name, "--seed", suite_seed,
               "--cases", cases]
        status, out = gate.cli(cmd)
        rows = _csv_rows(out)
        detail = "gshe " + " ".join(str(a) for a in cmd)
        gate.check(status == 0 and bool(rows), f"suite.{name}", detail)
        for row in rows:
            gate.check(row["failures"] == "0" and row["status"] == "PASS"
                       and int(row["cases"]) > 0,
                       f"suite.{row['claim']}", detail)


# -- symmetric: canonicalisation bound by its search ---------------------------

RELABELLINGS = 3


def _star(leaves, paired):
    wiring = [((0, 1), "up:1")]
    wiring += [((v, 1), (0, 0)) for v in range(1, leaves + 1)]
    pairs = [(v, v + 1) for v in range(1, leaves + 1, 2)] if paired else []
    p = len(pairs)
    aut = (math.factorial(p) * 2 ** p) if paired else math.factorial(leaves)
    return ["h"] + ["Xi"] * leaves, wiring, pairs, aut


def _gamma_fan(stars):
    """Christoffel vertex fed by two noises, with ``stars`` star leaves."""
    types = ["Gamma"] + ["Xi"] * (2 + stars)
    wiring = [((0, 1), "up:1"), ((1, 1), (0, 1)), ((2, 1), (0, 2))]
    wiring += [((v, 1), (0, 0)) for v in range(3, 3 + stars)]
    return types, wiring, [], 2 * math.factorial(stars)


def _gamma_tree(stars):
    """Christoffel root over two Christoffel cherries, plus star leaves."""
    types = ["Gamma"] * 3 + ["Xi"] * (4 + stars)
    wiring = [((0, 1), "up:1"), ((1, 1), (0, 1)), ((2, 1), (0, 2)),
              ((3, 1), (1, 1)), ((4, 1), (1, 2)),
              ((5, 1), (2, 1)), ((6, 1), (2, 2))]
    wiring += [((v, 1), (0, 0)) for v in range(7, 7 + stars)]
    return types, wiring, [], 8 * math.factorial(stars)


# name -> (types, wiring, pairs, automorphism count in closed form)
SYMMETRIC_GRAPHS = {
    "star7": _star(7, False),
    "star8": _star(8, False),
    "star6_paired": _star(6, True),
    "star8_paired": _star(8, True),
    "gamma_fan7": _gamma_fan(7),
    "gamma_tree3": _gamma_tree(3),
}


def _graph_text(types, wiring, pairs, perm, rng):
    """The text format of a graph with vertex v renamed perm[v]."""
    n = len(types)
    new_types = [None] * n
    for v, t in enumerate(types):
        new_types[perm[v]] = t
    lines = ["xgraph u=1 l=0"]
    lines += [f"v {v} {t}" for v, t in enumerate(new_types)]
    edges = []
    for (v, j), dst in wiring:
        if dst == "up:1":
            target = dst
        elif dst[1] == 0:
            target = f"{perm[dst[0]]}.star"
        else:
            target = f"{perm[dst[0]]}.in:{dst[1]}"
        edges.append(f"e {perm[v]}.out:{j} -> {target}")
    rng.shuffle(edges)
    lines += edges
    lines += [f"pair {perm[a]} {perm[b]}" for a, b in pairs]
    return "\n".join(lines)


def build_symmetric(seed, out_dir):
    rng = random.Random(seed)
    cases = []
    for name, (types, wiring, pairs, aut) in SYMMETRIC_GRAPHS.items():
        texts = []
        for r in range(RELABELLINGS):
            perm = list(range(len(types)))
            rng.shuffle(perm)
            texts.append(_graph_text(types, wiring, pairs, perm, rng))
        # The first relabelling goes through `gshe print --lincomb`.
        path = Path(out_dir) / f"symmetric-{name}.txt"
        path.write_text(f"1 * {{\n{texts[0]}\n}}\n")
        cases.append((name, texts, str(path.relative_to(ROOT)), aut))
    return {"cases": cases}


def run_symmetric(inp, gate):
    for name, texts, path, aut in inp["cases"]:
        prints = []
        for r, text in enumerate(texts):
            gate.next_op()
            if r == 0:
                status, out = gate.cli(["print", "--lincomb", path])
                m = re.fullmatch(r"1 \* \{\n(.*)\n\}\n", out, re.S)
                gate.check(status == 0 and m is not None,
                           f"{name}.print_lincomb", graph=text)
                prints.append(m.group(1) if m else None)
                continue
            g = graphs.parse_graph(text, symbols.GENERATORS)
            canon, count = g.canonicalize()
            prints.append(graphs.format_graph(canon))
            gate.check(count == aut, f"{name}.aut_count",
                       f"got {count}, closed form {aut}", graph=text)
            gate.check(prints[-1] == prints[0],
                       f"{name}.canonical_print", graph=text)


# -- jets: counterterm identities on random jets --------------------------------

# (dimension, jet order, noise fields) for the base-point identities.
JET_CASES = ((2, 4, 2), (2, 3, 3), (3, 2, 2))
LEVI_CIVITA_ORDER = 3
SUITE_JETS_CASES = 5


def _multi_indices(d, order):
    return [k for k in itertools.product(range(order + 1), repeat=d)
            if sum(k) <= order]


def _random_jet(rng, d, order):
    # A fifth of the coefficients, chosen at random, are zero, the others
    # are not: every seed gives jets with the same number of terms, so the
    # work of a round varies little with the seed.
    keys = _multi_indices(d, order)
    zero = set(rng.sample(range(len(keys)), len(keys) // 5))
    return jets.Jet(d, order, {k: Fraction(rng.choice((-2, -1, 1, 2)),
                                           rng.randint(1, 2))
                               for i, k in enumerate(keys) if i not in zero})


def _random_vector(rng, d, order):
    return jets.vector_jet(d, order, [_random_jet(rng, d, order)
                                      for _ in range(d)])


def _random_gamma(rng, d, order):
    """A (1,2) tensor jet symmetric in its two lower slots."""
    comps = {}
    for b in range(d):
        for c in range(b, d):
            for a in range(d):
                j = _random_jet(rng, d, order)
                comps[(b, c, a)] = comps[(c, b, a)] = j
    return jets.TensorJet(1, 2, d, order, comps)


def build_jets(seed, out_dir):
    rng = random.Random(seed)
    cases = []
    for d, order, m in JET_CASES:
        gamma = _random_gamma(rng, d, order)
        sigmas = [_random_vector(rng, d, order) for _ in range(m)]
        cases.append(((d, order, m), gamma, sigmas))
    # A frame invertible at the base point: a shifted diagonal.
    d, order = 2, LEVI_CIVITA_ORDER
    frame = []
    for a in range(d):
        comps = [_random_jet(rng, d, order) for _ in range(d)]
        comps[a] = comps[a] + jets.Jet(d, order, {(0,) * d: 5})
        frame.append(jets.vector_jet(d, order, comps))
    return {"cases": cases, "frame": frame,
            "suite_seed": rng.randrange(2 ** 31)}


def run_jets(inp, gate):
    with gate.stage("jets.stage.identities"):
        for (d, order, m), gamma, sigmas in inp["cases"]:
            val = jets.Valuation(gamma, sigmas)
            for what, vector, oracle in (
                    ("curvature", morphisms.tau_star,
                     jets.curvature_counterterm),
                    ("gradient", morphisms.tau_c, jets.gradient_counterterm)):
                gate.next_op()
                got = val(vector())
                gate.next_op()
                want = oracle(gamma, sigmas)
                for a in range(d):
                    gate.check(got.value((a,)) == want.value((a,)),
                               f"identity.{what}",
                               f"d={d} order={order} m={m} component={a}")
        gate.next_op()
        frame = inp["frame"]
        gamma = jets.levi_civita(frame)
        got = jets.Valuation(gamma, frame)(morphisms.tau_star())
        for a in range(gamma.d):
            gate.check(got.value((a,)) == 0, "levi_civita_vanishing",
                       f"d={gamma.d} order={gamma.order} component={a}")
    with gate.stage("jets.stage.full_jet"):
        gate.next_op()
        cmd = ["check", "--suite", "jets", "--seed", inp["suite_seed"],
               "--cases", SUITE_JETS_CASES]
        status, out = gate.cli(cmd)
        rows = _csv_rows(out)
        detail = "gshe " + " ".join(str(a) for a in cmd)
        gate.check(status == 0 and bool(rows), "suite.jets", detail)
        for row in rows:
            gate.check(row["failures"] == "0" and row["status"] == "PASS",
                       f"suite.jets.{row['claim']}", detail)


# -- numerics: quadrature and the circle solvers --------------------------------

SPHERE_SNAPSHOTS = 5 * 64


def build_numerics(seed, out_dir):
    rng = random.Random(seed)
    out_dir = Path(out_dir)
    return {"sphere_seed": rng.randrange(2 ** 31),
            "modes_csv": out_dir / "numerics-modes.csv",
            "sphere_csv": out_dir / "numerics-sphere.csv"}


def run_numerics(inp, gate):
    gate.next_op()
    path = inp["modes_csv"]
    status, _ = gate.cli(["sim", "--target", "flat", "--out", path], path)
    rows = _csv_rows(path.read_text())
    gate.check(status == 0 and len(rows) == 16, "sim_flat",
               "gshe sim --target flat")
    for row in rows:
        gate.check(row["status"] == "PASS",
                   f"sim_flat.mode{row['mode']}.c{row['component']}",
                   "gshe sim --target flat")

    gate.next_op()
    path = inp["sphere_csv"]
    cmd = ["sim", "--target", "sphere", "--seed", inp["sphere_seed"],
           "--out", path]
    status, _ = gate.cli(cmd, path)
    lines = path.read_text().splitlines()
    gate.check(status == 0 and lines[0] == "t,x,u1,u2,u3"
               and len(lines) == SPHERE_SNAPSHOTS + 1, "sim_sphere",
               f"gshe sim --target sphere --seed {inp['sphere_seed']}")

    gate.next_op()
    status, out = gate.cli(["constants"])
    rows = _csv_rows(out)
    gate.check(status == 0 and any(r["name"] == "k3_log_slope" for r in rows),
               "constants", "gshe constants")
    for row in rows:
        gate.check(row["status"] in ("PASS", "INFO"),
                   f"constants.{row['name']}", "gshe constants")

    gate.next_op()
    status, out = gate.cli(["ou", "--mc"])
    rows = _csv_rows(out)
    gate.check(status == 0 and len(rows) == 4, "ou", "gshe ou --mc")
    for row in rows:
        gate.check(row["status"] == "PASS", f"ou.{row['name']}", "gshe ou --mc")

    # Criterion 8: rotating the noise matrix leaves every mode variance at
    # the unrotated oracle.  The seed is the acceptance gate's: the check is
    # a 3.5-sigma test, so it is not re-drawn per workload seed.
    gate.next_op()
    sigma = np.array([[1.0, 0.5], [0.0, 1.2]])
    rot = np.array([[math.cos(0.7), -math.sin(0.7)],
                    [math.sin(0.7), math.cos(0.7)]])
    res = renorm.she_simulate(renorm.SimConfig(n_grid=64, dim=2, n_noise=2,
                                               seed=6, sigma=sigma @ rot),
                              modes=8, n_replicas=120)
    plain = renorm.SimConfig(n_grid=64, dim=2, n_noise=2, sigma=sigma)
    oracle = np.array([renorm.flat_mode_variance_oracle(plain, k)
                       for k in range(1, 9)]).T
    z = float(np.max(np.abs(res["mode_var"] - oracle) / res["se"]))
    gate.check(z < 3.5, "rotated_sigma", f"max|z|={z:.2f}")

    # Criterion 8: the deterministic sphere run refines at first order.
    gate.next_op()
    horizon, n1 = 0.05, 48
    dt1 = 0.05 * (2 * math.pi / n1) ** 2
    coarse = renorm.sphere_simulate(n_grid=n1, dt=dt1,
                                    n_steps=int(horizon / dt1),
                                    noise_scale=0.0)
    fine = renorm.sphere_simulate(n_grid=2 * n1, dt=dt1 / 2,
                                  n_steps=int(horizon / (dt1 / 2)),
                                  noise_scale=0.0)
    gate.check(coarse["max_dist"] >= 2.0 * fine["max_dist"],
               "sphere_refinement",
               f"coarse {coarse['max_dist']:.3e} fine {fine['max_dist']:.3e}")


WORKLOADS = {
    "symbolic": (build_symbolic, run_symbolic),
    "symmetric": (build_symmetric, run_symmetric),
    "jets": (build_jets, run_jets),
    "numerics": (build_numerics, run_numerics),
}

# Wrapped span names each workload must reach; a traced round in which one
# of them records no call fails its gate.
EXPECT_CALLED = {
    "symbolic": (
        "cli.main", "graphs.canonicalize", "graphs.XGraph.init",
        "graphs.parse_graph", "graphs.format_graph", "algebra.product",
        "algebra.trace", "algebra.derive", "algebra.act", "algebra.graft",
        "algebra.inner", "algebra.coproduct", "algebra.decompose",
        "algebra.LinComb.add", "morphisms.phi_hat_geo", "morphisms.phi_geo",
        "morphisms.p_ito", "morphisms.m_ito", "morphisms.M_ito",
        "morphisms.tau_star", "morphisms.tau_c", "subspaces.rref",
        "subspaces.dimension_report", "symbols.full_basis",
        "checks.suite.talgebra", "checks.suite.adjoint",
        "checks.suite.identities", "randgraphs.random_graph"),
    "symmetric": (
        "cli.main", "graphs.canonicalize", "graphs.XGraph.init",
        "graphs.parse_graph", "graphs.format_graph", "algebra.LinComb.add"),
    "jets": (
        "cli.main", "graphs.canonicalize", "symbols.iota_expand",
        "morphisms.tau_star", "morphisms.tau_c", "jets.Jet.mul",
        "jets.Jet.add", "jets.TensorJet.derive",
        "jets.TensorJet.contract_lower", "jets.TensorJet.product",
        "jets.TensorJet.act", "jets.TensorJet.trace", "jets.Valuation.call",
        "jets.curvature_counterterm", "jets.gradient_counterterm",
        "jets.levi_civita", "checks.suite.jets", "randgraphs.random_graph"),
    "numerics": (
        "cli.main", "renorm.she_simulate", "renorm.sphere_simulate",
        "renorm.cbar_estimate", "renorm.k3_integral", "renorm.ou_loop_mc",
        "renorm.p3_identity", "renorm.fft.fft", "renorm.fft.ifft",
        "renorm.fft.irfft"),
}
