"""Command-line frontend.

Subcommands: ``basis`` (emit the 54 paired symbols), ``dims`` (dimension
claims with pass/fail), ``expand`` (distinguished vectors), ``check``
(seeded property suites), ``constants`` (quadrature constants), ``ou``
(discrete loop covariance), ``sim`` (flat or sphere solver), ``parse`` /
``print`` (text-format roundtrip).  Exit status is zero iff every requested
check passed; an unreadable or malformed input file exits with 1 and a
line-numbered message, an --out path that cannot be written with 1 and a
``cannot write`` message, a flat or sphere run that blows up with 1 and no
CSV; a malformed flag or ``GSHE_SEED``, a size above its bound (see
--help), a non-finite --noise, or a value the library rejects with
``ValueError``, exits with argparse's 2.
``check`` runs each suite at its own default size unless --cases is given.
Machine-readable CSV goes to --out when given, otherwise rows are printed
alongside the human-readable report.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .algebra import format_lincomb, parse_lincomb
from .graphs import ParseError, format_graph, parse_graph
from .symbols import GENERATORS, full_basis, labeled_noise


def _write(text, out_path):
    """Write text to the file out_path, or to stdout when it is empty.

    Returns the exit status: 1 after reporting a file that cannot be written.
    """
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _emit(rows, header, out_path):
    """Write rows as CSV; returns exit status 1 iff a row's last field is FAIL
    or the output cannot be written."""
    lines = [header] + [",".join(str(x) for x in row) for row in rows]
    failed = _write("\n".join(lines) + "\n", out_path)
    return failed or int(any(row[-1] == "FAIL" for row in rows))


def _map(fn, payloads, jobs):
    """fn over payloads, in a pool of ``jobs`` worker processes when jobs > 1."""
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


def cmd_basis(args):
    basis = full_basis()
    print(f"# {len(basis)} paired symbols", file=sys.stderr)
    return _write("\n\n".join(format_graph(g) for g in basis) + "\n", args.out)


def cmd_dims(args):
    from .subspaces import dimension_report, verify_functionals

    rows = [(name, expected, got, _verdict(expected == got))
            for name, expected, got in dimension_report() + verify_functionals()]
    return _emit(rows, "claim,expected,got,status", args.out)


def cmd_expand(args):
    from .morphisms import covariant_symbols, tau_c, tau_star

    if args.which == "tau_star":
        items = [("tau_star", tau_star())]
    elif args.which == "tau_c":
        items = [("tau_c", tau_c())]
    else:
        items = [(f"V_{i+1}", v) for i, v in enumerate(covariant_symbols())]
    chunks = [f"# {name}\n{format_lincomb(v)}" for name, v in items]
    return _write("\n\n".join(chunks) + "\n", args.out)


def _run_suite(payload):
    name, seed, cases = payload
    from .checks import SUITES

    # Without --cases each suite runs its own default size.
    sized = {} if cases is None else {"cases": cases}
    return name, SUITES[name](seed=seed, **sized)


def cmd_check(args):
    from .checks import SUITES

    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = _map(_run_suite, [(n, args.seed, args.cases) for n in names],
                   args.jobs)
    rows = [(f"{name}.{claim}", cases, failures, _verdict(failures == 0))
            for name, suite_rows in results
            for claim, cases, failures in suite_rows]
    return _emit(rows, "claim,cases,failures,status", args.out)


def cmd_constants(args):
    """The quadrature constants: the P^3 identity, the 1/eps coefficient
    cbar at each eps, and the k3 log slope.

    The quadrature scales with eps exactly (every node and weight moves by a
    power of eps), so the cbar values are equal bit for bit across the
    default halvings and differ by rounding noise for other lists; a row
    comparing consecutive values would be derived, not evidence, so there
    is none.  The evidence for cbar's accuracy is the finer-quadrature
    comparison in ``tests/test_renorm.py``'s ``test_cbar_stability``.
    """
    from .renorm import (K3_SLOPE, Mollifier, cbar_estimate, k3_log_slope,
                         p3_identity)

    rows = []
    for t in (0.1, 1.0):
        val = p3_identity(t)
        rows.append((f"p3_identity_t{t}", t, f"{val:.9f}", 0,
                     _verdict(abs(val - 1.0) < 1e-6)))
    rho = Mollifier()
    for e in args.eps_list:
        rows.append(("cbar_times_eps", e, f"{cbar_estimate(rho, e):.9f}", 0,
                     "INFO"))
    slope, _ = k3_log_slope(rho, args.eps_list)
    rows.append(("k3_log_slope", 0, f"{slope:.6f}", f"{K3_SLOPE:.6f}",
                 _verdict(abs(slope - K3_SLOPE) / K3_SLOPE < 0.10)))
    return _emit(rows, "name,eps,value,stderr,status", args.out)


def cmd_ou(args):
    """The discrete loop's stationary statistics a2 and a1: exact rows, and
    with ``--mc`` Monte Carlo rows.

    On a periodic loop sum_j u_j (u_{j+1} - u_j) = -sum_j (u_{j+1} - u_j)^2
    / 2, so every sample has a1 = -a2 / 2, and the ``ou_a1_mc`` row is the
    ``ou_a2_mc`` row times -1/2 (value, standard error and verdict alike).
    It is derived, not a second check.
    """
    from .renorm import ou_loop_covariance, ou_loop_mc

    a2, a1 = ou_loop_covariance(args.n)
    rows = [("ou_a2_exact", args.n, f"{a2:.6f}", 0,
             _verdict(0.98 <= a2 <= 1.02)),
            ("ou_a1_exact", args.n, f"{a1:.6f}", 0,
             _verdict(-0.52 <= a1 <= -0.48))]
    if args.mc:
        nmc = min(args.n, 64)
        a2m, a1m, se2, se1 = ou_loop_mc(nmc, seed=args.seed)
        e2, e1 = ou_loop_covariance(nmc)
        rows.append(("ou_a2_mc", nmc, f"{a2m:.6f}", f"{se2:.2e}",
                     _verdict(abs(a2m - e2) / se2 < 3)))
        rows.append(("ou_a1_mc", nmc, f"{a1m:.6f}", f"{se1:.2e}",
                     _verdict(abs(a1m - e1) / se1 < 3)))
    return _emit(rows, "name,n,value,stderr,status", args.out)


def cmd_sim(args):
    from .renorm import (SimConfig, StabilityError, she_simulate,
                         sphere_simulate)

    try:
        if args.target == "flat":
            cfg = SimConfig(n_grid=args.n, dim=args.dim, n_noise=args.dim,
                            seed=args.seed, noise_scale=args.noise)
            res = she_simulate(cfg, modes=args.modes,
                               n_replicas=args.replicas)
        else:
            res = sphere_simulate(n_grid=args.n, n_steps=args.steps,
                                  seed=args.seed, noise_scale=args.noise)
    except StabilityError as exc:
        print(f"gshe: sim: {exc}", file=sys.stderr)
        return 1
    if args.target == "flat":
        var, oracle, se = res["mode_var"], res["oracle"], res["se"]

        # |u_hat_k|^2 is exponential about the oracle, or chi-square with one
        # degree of freedom at the real Nyquist mode k = N/2, so its mean
        # over the replicas has standard error oracle * sqrt(c / replicas);
        # at zero noise both are 0, an exact match
        def within(c, k):
            spread = 2 if 2 * (k + 1) == args.n else 1
            return (abs(var[c, k] - oracle[c, k])
                    <= 3.5 * oracle[c, k] * math.sqrt(spread / args.replicas))

        rows = [(k + 1, c, f"{var[c, k]:.4f}", f"{oracle[c, k]:.4f}",
                 f"{se[c, k]:.4f}", _verdict(within(c, k)))
                for k in range(args.modes) for c in range(args.dim)]
        return _emit(rows, "mode,component,variance,oracle,stderr,status",
                     args.out)
    rows = [(f"{t:.5f}", f"{x:.5f}", f"{u1:.6f}", f"{u2:.6f}", f"{u3:.6f}")
            for t, x, u1, u2, u3 in res["snapshots"]]
    failed = _emit(rows, "t,x,u1,u2,u3", args.out)
    print(f"max ||u|-1| = {res['max_dist']:.3e}; "
          f"lengths {res['lengths'][0]:.4f} -> {res['lengths'][-1]:.4f}",
          file=sys.stderr)
    return int(failed or res["max_dist"] >= 0.9)


def _read_input(args):
    """Parse the graph (or, with --lincomb, the combination) in args.path.

    Reports an unreadable file or a parse error on stderr and returns None.
    """
    gens = dict(GENERATORS)
    gens.update((t.name, t) for t in map(labeled_noise, range(1, 10)))
    try:
        with open(args.path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return None
    try:
        return (parse_lincomb if args.lincomb else parse_graph)(text, gens)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None


def cmd_parse(args):
    parsed = _read_input(args)
    if parsed is None:
        return 1
    if args.lincomb:
        print(f"parsed {len(parsed)} canonical terms", file=sys.stderr)
    else:
        print(f"parsed graph of degree {parsed.degree} with "
              f"{parsed.n_vertices} vertices", file=sys.stderr)
    return 0


def cmd_print(args):
    parsed = _read_input(args)
    if parsed is None:
        return 1
    # a combination's terms are canonical already; a graph is made canonical
    text = (format_lincomb(parsed) if args.lincomb
            else format_graph(parsed.canonicalize()[0]))
    sys.stdout.write(text + "\n")
    return 0


def _int_in(low=None, high=None):
    """An argparse type: an integer in low..high, a bound of None left open."""
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return convert


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# The smallest --eps-list value.  The quadratures pass down to 1e-10; at
# 1e-150 k3's time window 1.3 / eps^2 reaches 1e300 and its slope is nan,
# and at 1e-300 eps^2 underflows to 0.
EPS_MIN = 1e-10


def _eps_list(text):
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    for value in values:
        if not EPS_MIN <= value <= 1:
            raise argparse.ArgumentTypeError(
                f"eps must lie in [{EPS_MIN:g}, 1], got {value!r}")
    return values


def build_parser():
    p = argparse.ArgumentParser(prog="gshe",
                                description="counterterm combinatorics and "
                                "desk-scale numerics")
    # A string default goes through the option's type, so a bad GSHE_SEED
    # is reported as a bad --seed, and only by subcommands that take one.
    seed = os.environ.get("GSHE_SEED", "0")
    p.add_argument("--jobs", type=_int_in(1), default=1,
                   help="check: worker processes, one suite each")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("basis", help="emit the 54 paired symbols")
    q.add_argument("--out")
    q.set_defaults(fn=cmd_basis)

    q = sub.add_parser("dims", help="dimension claims with pass/fail")
    q.add_argument("--out")
    q.set_defaults(fn=cmd_dims)

    q = sub.add_parser("expand", help="emit distinguished expansions")
    q.add_argument("--which", choices=("tau_star", "tau_c", "V"),
                   required=True)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_expand)

    q = sub.add_parser("check", help="seeded property suites")
    q.add_argument("--suite", default="all",
                   choices=("all", "talgebra", "adjoint", "identities",
                            "jets"))
    q.add_argument("--seed", type=_int_in(0), default=seed)
    # talgebra, the slowest suite, takes 12-16 ms a case on 2 shared vCPUs,
    # so the bound runs in minutes
    q.add_argument("--cases", type=_int_in(1, 10000),
                   help="cases per claim, 1..10000 (default: the suite's "
                   "own)")
    q.add_argument("--out")
    q.set_defaults(fn=cmd_check)

    q = sub.add_parser("constants", help="quadrature constants")
    q.add_argument("--eps-list", type=_eps_list, default="0.2,0.1,0.05,0.025",
                   help=f"comma-separated eps values in [{EPS_MIN:g}, 1], "
                   "at least three")
    q.add_argument("--out")
    q.set_defaults(fn=cmd_constants)

    q = sub.add_parser("ou", help="discrete loop covariance")
    # ou_loop_covariance rejects n < 8 itself
    q.add_argument("--n", type=_int_in(high=10 ** 6), default=256,
                   help="loop sites, 8..1000000 (the Monte Carlo uses "
                   "min(n, 64))")
    q.add_argument("--mc", action="store_true")
    q.add_argument("--seed", type=_int_in(0), default=seed)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_ou)

    q = sub.add_parser("sim", help="run a circle solver")
    q.add_argument("--target", choices=("flat", "sphere"), required=True)
    # The upper bounds keep every run short: the flat solver draws its
    # snapshot in one go, 2 top <= n normals per replica and noise with
    # top = min(modes, n // 2), so with --n, --replicas, --dim and --modes
    # at their bounds about 1e6 normals and 70 MB, a fraction of a second;
    # the sphere run takes --steps steps on n points.
    q.add_argument("--n", type=_int_in(2, 128), default=64,
                   help="grid points, 2..128")
    q.add_argument("--dim", type=_int_in(1, 8), default=2,
                   help="flat: field components and noises, 1..8")
    q.add_argument("--modes", type=_int_in(1), default=8,
                   help="flat: recorded modes, 1..n-1")
    q.add_argument("--replicas", type=_int_in(2, 1000), default=160,
                   help="flat: independent runs, 2..1000")
    q.add_argument("--steps", type=_int_in(1, 100000), default=400,
                   help="sphere: time steps, 1..100000")
    q.add_argument("--noise", type=_finite_float, default=1.0,
                   help="noise amplitude, flat and sphere")
    q.add_argument("--seed", type=_int_in(0), default=seed)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_sim)

    q = sub.add_parser("parse", help="validate a text-format file")
    q.add_argument("path")
    q.add_argument("--lincomb", action="store_true")
    q.set_defaults(fn=cmd_parse)

    q = sub.add_parser("print", help="parse and re-emit canonically")
    q.add_argument("path")
    q.add_argument("--lincomb", action="store_true")
    q.set_defaults(fn=cmd_print)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is cmd_sim and args.target == "flat" and args.modes >= args.n:
        parser.error(f"sim: --modes must be below --n, got {args.modes} "
                     f"modes on {args.n} points")
    try:
        return args.fn(args)
    except ValueError as exc:
        # the library's own checks on an argument, e.g. ou's N >= 8
        parser.error(f"{args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
