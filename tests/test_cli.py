import hashlib
import os
import subprocess
import sys

import pytest


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "gshe.cli", *args],
                          capture_output=True, text=True, **kw)


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
     "6c5687d984a6142101723adc9f45fec21ee6bf15005906243b6444da34bb8be0"),
    (["--target", "sphere", "--n", "16", "--steps", "20"],
     "e96fd4f7e33988bbe7eee8411fb621b6403ef6cefc3129503a35b9089db2ab10"),
])
def test_sim_output_bytes(tmp_path, args, digest):
    # seeded runs are byte-stable: a step that rounds differently enough to
    # move a printed digit changes these SHA-256 digests of the CSVs
    out = tmp_path / "out.csv"
    r = run_cli("sim", *args, "--seed", "3", "--out", str(out))
    assert r.returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sim_sphere(tmp_path):
    out = tmp_path / "sphere_snapshots.csv"
    r = run_cli("sim", "--target", "sphere", "--n", "32", "--steps", "80",
                "--seed", "1", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,u1,u2,u3"
    assert len(lines) > 10


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
