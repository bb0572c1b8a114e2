import hashlib
import importlib.util
import os
import subprocess
import sys
import time

import pytest

from gshe.cli import main


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_cli(*args, env=None, **kw):
    # the child imports this checkout's package whatever the caller's path
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "gshe.cli", *args],
                          capture_output=True, text=True, env=env, **kw)


def test_basis_emits_54(tmp_path):
    out = tmp_path / "basis.txt"
    r = run_cli("basis", "--out", str(out))
    assert r.returncode == 0
    blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
    assert len(blocks) == 54


def test_dims_contains_dim_s_row(tmp_path):
    out = tmp_path / "dims.csv"
    r = run_cli("dims", "--out", str(out))
    assert r.returncode == 0
    text = out.read_text()
    assert "dim_S,54,54,PASS" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("args, digest", [
    (["expand", "--which", "V"],
     "6534991996d6a8caa4327b17a913cfc0ed502df6d6e3a241f748d39d686f1868"),
    (["dims"],
     "af9da8a3e6a38630e887b4d6a87c8f25c84c75f3ee68069698d6906261062527"),
    (["constants"],
     "e4d7a4afa1366f23a3e40ab5deceb34c808506ba87f0a7fd95f0f44d9031014e"),
    (["ou", "--mc"],
     "63fde3f90469e512d376b44c481ee7215feceeb43bed2f05c9e8c7914bd82f88"),
])
def test_exact_output_bytes(args, digest):
    # no golden file holds these: SHA-256 digests of the printed stdout
    r = run_cli(*args)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_make_golden_reproduces_data(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_golden", os.path.join(ROOT, "scripts", "make_golden.py"))
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    monkeypatch.setattr(make_golden, "DATA", tmp_path)
    make_golden.main()
    for name in ("basis.txt", "tau_star.txt", "tau_c.txt"):
        with open(os.path.join(SRC, "gshe", "data", name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_expand_roundtrip(tmp_path):
    out = tmp_path / "tau_star.txt"
    r = run_cli("expand", "--which", "tau_star", "--out", str(out))
    assert r.returncode == 0
    r2 = run_cli("print", "--lincomb", str(out))
    assert r2.returncode == 0


def test_parse_print_byte_stable(tmp_path):
    out = tmp_path / "basis.txt"
    run_cli("basis", "--out", str(out))
    blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
    one = tmp_path / "one.txt"
    one.write_text(blocks[7] + "\n")
    first = run_cli("print", str(one))
    assert first.returncode == 0
    again = tmp_path / "again.txt"
    again.write_text(first.stdout)
    second = run_cli("print", str(again))
    assert second.stdout == first.stdout


def test_print_is_canonical(tmp_path):
    # one Christoffel cherry written with the Christoffel vertex first and
    # second: isomorphic inputs print the same canonical bytes
    first = tmp_path / "first.txt"
    first.write_text("xgraph u=1 l=0\nv 0 Gamma\nv 1 Xi\nv 2 Xi\n"
                     "e 0.out:1 -> up:1\ne 1.out:1 -> 0.in:1\n"
                     "e 2.out:1 -> 0.in:2\npair 1 2\n")
    second = tmp_path / "second.txt"
    second.write_text("xgraph u=1 l=0\nv 0 Xi\nv 1 Gamma\nv 2 Xi\n"
                      "e 1.out:1 -> up:1\ne 2.out:1 -> 1.in:1\n"
                      "e 0.out:1 -> 1.in:2\npair 0 2\n")
    a, b = run_cli("print", str(first)), run_cli("print", str(second))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout == first.read_text()


def test_parse_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("xgraph u=1 l=0\nv 0 Xi\ne 0.out:1 -> up:7\n")
    r = run_cli("parse", str(bad))
    assert r.returncode == 1
    assert "line" in r.stderr


def test_check_deterministic(tmp_path):
    a = run_cli("check", "--suite", "adjoint", "--seed", "7",
                "--cases", "30")
    b = run_cli("check", "--suite", "adjoint", "--seed", "7",
                "--cases", "30")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_ou_command(tmp_path):
    r = run_cli("ou", "--n", "256")
    assert r.returncode == 0
    assert "ou_a2_exact,256" in r.stdout


def test_constants_command(tmp_path):
    out = tmp_path / "constants.csv"
    r = run_cli("constants", "--eps-list", "0.1,0.05,0.025",
                "--out", str(out))
    assert r.returncode == 0
    text = out.read_text()
    assert "k3_log_slope" in text and "FAIL" not in text


def test_sim_flat(tmp_path):
    out = tmp_path / "modes.csv"
    r = run_cli("sim", "--target", "flat", "--n", "32", "--dim", "1",
                "--replicas", "60", "--seed", "3", "--out", str(out))
    assert r.returncode == 0
    assert out.read_text().startswith("mode,component,variance")


@pytest.mark.parametrize("args, digest", [
    (["--target", "flat", "--n", "16", "--modes", "4", "--replicas", "8"],
     "053de807a7ec071b70f22b37a62b99c2f96ddeeef307f0067ffac4cc3416d4a9"),
    (["--target", "sphere", "--n", "16", "--steps", "20"],
     "e96fd4f7e33988bbe7eee8411fb621b6403ef6cefc3129503a35b9089db2ab10"),
    # crosses the sphere solver's noise blocks (41 steps at n = 33)
    (["--target", "sphere", "--n", "33", "--steps", "300", "--noise", "0.5"],
     "6df0e5f3b6b183f8c5e484a0ab4d271f3da4f3af1cee1bf69744a5867e32d11d"),
])
def test_sim_output_bytes(tmp_path, args, digest):
    # seeded runs are byte-stable: a step that rounds differently enough to
    # move a printed digit changes these SHA-256 digests of the CSVs
    out = tmp_path / "out.csv"
    r = run_cli("sim", *args, "--seed", "3", "--out", str(out))
    assert r.returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args", [
    ["--n", "49", "--dim", "1", "--modes", "48", "--replicas", "12",
     "--seed", "1"],
    ["--n", "33", "--dim", "3", "--modes", "20", "--replicas", "40",
     "--seed", "7"],
])
def test_sim_flat_verdict_uses_oracle_error(tmp_path, args):
    # at few replicas a low sample mean also has a small sample standard
    # error; judged against the oracle's own error both runs pass
    out = tmp_path / "modes.csv"
    r = run_cli("sim", "--target", "flat", *args, "--out", str(out))
    assert r.returncode == 0
    assert "FAIL" not in out.read_text()


def test_sim_sphere_blow_up_is_reported(tmp_path):
    out = tmp_path / "sphere_snapshots.csv"
    r = run_cli("sim", "--target", "sphere", "--n", "16", "--steps", "5",
                "--noise", "1e9", "--out", str(out))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert "gshe: sim: sphere run blew up at step 0" in r.stderr
    assert not out.exists()


def test_sim_flat_blow_up_is_reported(tmp_path):
    out = tmp_path / "modes.csv"
    r = run_cli("sim", "--target", "flat", "--n", "16", "--modes", "2",
                "--replicas", "4", "--noise", "1e9", "--out", str(out))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert "gshe: sim: stationary site deviation" in r.stderr
    assert not out.exists()


def test_sim_flat_zero_noise_passes(tmp_path):
    # variance and oracle are both 0: an exact match, not a failure
    out = tmp_path / "modes.csv"
    r = run_cli("sim", "--target", "flat", "--n", "16", "--modes", "8",
                "--replicas", "4", "--noise", "0", "--out", str(out))
    assert r.returncode == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 16
    assert all(row.endswith(",0.0000,0.0000,0.0000,PASS") for row in rows)


def test_sim_flat_largest_run_is_bounded(tmp_path):
    # every size flag at its bound: the snapshot is drawn in one go, so the
    # run takes well under a second on a two-core box
    out = tmp_path / "modes.csv"
    start = time.perf_counter()
    status = main(["sim", "--target", "flat", "--n", "128", "--dim", "8",
                   "--replicas", "1000", "--modes", "127", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert status in (0, 1)
    assert len(out.read_text().splitlines()) == 1 + 127 * 8
    assert elapsed <= 10.0


def test_sim_sphere(tmp_path):
    out = tmp_path / "sphere_snapshots.csv"
    r = run_cli("sim", "--target", "sphere", "--n", "32", "--steps", "80",
                "--seed", "1", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,u1,u2,u3"
    assert len(lines) > 10


@pytest.mark.parametrize("args, header", [
    (["--target", "flat", "--n", "16", "--modes", "2", "--replicas", "4"],
     "mode,component,variance,oracle,stderr,status"),
    (["--target", "sphere", "--n", "16", "--steps", "5"], "t,x,u1,u2,u3"),
])
def test_sim_without_out_prints_rows(tmp_path, args, header):
    # without --out the CSV goes to stdout and no file is written
    r = run_cli("sim", *args, cwd=tmp_path)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == header
    assert list(tmp_path.iterdir()) == []


GRAPH_OK = "xgraph u=1 l=0\nv 0 Xi\ne 0.out:1 -> up:1\n"


@pytest.mark.parametrize("text, lincomb, lineno", [
    ("xgraph u=1 l=0\nv x Xi\n", False, 2),
    ("xgraph u=1 l=0\nv 0 Xi\ne 0.out:one -> 0.in:1\n", False, 3),
    ("xgraph u=1 l=0\nv 0 Xi\ne 0.out:1 -> up:one\n", False, 3),
    ("xgraph u=1 l=0\nv 0 Xi\nv 1 Xi\ne 0.out:1 -> up:1\n"
     "e 1.out:1 -> 0.star\npair 0 b\n", False, 6),
    ("xgraph u=1 l=0\nv 0 Xi\nv 1 Xi\ne 0.out:1 -> up:1\n"
     "e 1.out:1 -> 0.star\npair 0 1\npair 1 0\n", False, 7),
    ("# header\n\nabc * {\n" + GRAPH_OK + "}\n", True, 3),
    ("1 * {\n" + GRAPH_OK + "}\n1/0 * {\n" + GRAPH_OK + "}\n", True, 6),
    ("1/2 * {\n\nxgraph u=1 l=0\nv y Xi\n}\n", True, 4),
    ("xgraph u=1 l=0\n" + "".join(f"v {i} Xi\n" for i in range(12)),
     False, 12),
    ("xgraph u=-1 l=0\n", False, 1),
    ("xgraph u=1 l=-2\nv 0 Xi\ne 0.out:1 -> up:1\n", False, 1),
    ("xgraph u=0 l=0 junk=3\n", False, 1),
    (GRAPH_OK + "xgraph u=1 l=0\n", False, 4),
    ("1 * 2 * {\n" + GRAPH_OK + "}\n", True, 1),
    # a huge l is rejected without building its slot set
    ("xgraph u=0 l=1000000000\nv 0 Xi\ne 0.out:1 -> 0.star\n", False, 1),
])
@pytest.mark.parametrize("command", ["parse", "print"])
def test_malformed_input_reports_line(tmp_path, command, text, lincomb,
                                      lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    r = run_cli(command, *(["--lincomb"] if lincomb else []), str(path))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert f"line {lineno}:" in r.stderr


@pytest.mark.parametrize("command", ["parse", "print"])
def test_missing_input_file(tmp_path, command):
    r = run_cli(command, str(tmp_path / "absent.txt"))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert "absent.txt" in r.stderr


@pytest.mark.parametrize("args, env, named", [
    (["ou"], {"GSHE_SEED": "x"}, "--seed"),
    (["check", "--suite", "jets"], {"GSHE_SEED": "1.5"}, "--seed"),
    (["ou", "--seed", "x"], {}, "--seed"),
    (["constants", "--eps-list", "0.2,x"], {}, "--eps-list"),
    (["constants", "--eps-list", "0.2,0.1"], {}, "three eps values"),
    (["constants", "--eps-list", "0.2,0.1,0"], {}, "eps must lie in"),
    (["ou", "--n", "4"], {}, "N >= 8"),
    (["sim", "--target", "flat", "--dim", "0"], {}, "--dim"),
    (["sim", "--target", "flat", "--n", "8"], {}, "--modes"),
    (["sim", "--target", "sphere", "--steps", "0"], {}, "--steps"),
    (["check", "--cases", "0"], {}, "--cases"),
    (["--jobs", "0", "basis"], {}, "--jobs"),
    (["sim", "--target", "sphere", "--noise", "nan"], {}, "--noise"),
    (["sim", "--target", "sphere", "--noise", "inf"], {}, "--noise"),
    # sizes beyond the stated bounds, which would exhaust memory or time
    (["ou", "--n", "100000000000"], {}, "--n"),
    (["sim", "--target", "flat", "--n", "100000000"], {}, "--n"),
    (["sim", "--target", "flat", "--replicas", "1001"], {}, "--replicas"),
    (["sim", "--target", "flat", "--dim", "9"], {}, "--dim"),
    (["sim", "--target", "sphere", "--steps", "100001"], {}, "--steps"),
    # eps outside [1e-10, 1]: at 1e-300 the k3 quadrature divided by
    # eps^2 = 0, at 1e-150 its slope was nan
    (["constants", "--eps-list", "1e-300,1e-301,1e-302"], {}, "--eps-list"),
    (["constants", "--eps-list", "1e-150,1e-151,1e-152"], {}, "--eps-list"),
    (["constants", "--eps-list", "0.2,0.1,0.05,2"], {}, "eps must lie in"),
    (["constants", "--eps-list", "nan,0.1,0.05"], {}, "eps must lie in"),
    # a --cases beyond its bound
    (["check", "--cases", "10001"], {}, "--cases"),
])
def test_malformed_flags_are_usage_errors(args, env, named):
    r = run_cli(*args, env={**os.environ, **env})
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert named in r.stderr


def test_check_uses_each_suite_default_size():
    r = run_cli("check", "--suite", "jets", "--seed", "3")
    assert r.returncode == 0
    rows = r.stdout.strip().splitlines()[1:]
    assert rows and all(row.split(",")[1] == "40" for row in rows)


@pytest.mark.parametrize("args", [["ou", "--n", "8"], ["basis"]])
def test_unwritable_out_path(tmp_path, args):
    out = tmp_path / "absent" / "x.csv"
    r = run_cli(*args, "--out", str(out))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert f"cannot write {out}: " in r.stderr


def test_pool_starts_no_more_workers_than_payloads(monkeypatch):
    from gshe import cli

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    assert cli._map(abs, [-1, -2], 10 ** 6) == [1, 2]
    assert sizes == [2]
