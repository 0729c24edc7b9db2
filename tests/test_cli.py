"""End-to-end runs of every subcommand."""

import json
import os
import subprocess
import sys

import pytest

from hamalg import cli, equals, parse_symbol


def run(*args):
    return subprocess.run([sys.executable, "-m", "hamalg", *args],
                          capture_output=True, text=True)


def test_bracket_matches_the_documented_example():
    out = run("bracket", "int[x](phi(x)^2)", "int[x](pi(x)^2)")
    assert out.returncode == 0
    got = parse_symbol(out.stdout.strip())
    assert equals(got, parse_symbol("-4*int[x](phi(x)*pi(x))"))


def test_vderiv_prints_at_the_free_point():
    out = run("vderiv", "int[x]( (1/2)*pi(x)^2 )", "--field", "pi")
    assert out.returncode == 0
    assert out.stdout.strip() == "pi(y)"


@pytest.mark.parametrize("text", ["g(y)*int[x](phi(x)^2)",
                                  "int[x](phi(x)^2)*phi(y)"])
def test_vderiv_refuses_a_point_in_the_expression(text):
    out = run("vderiv", text, "--field", "phi", "--at", "y")
    assert out.returncode == 2
    assert out.stderr.startswith("error: test point already occurs")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("value", ["0", "abc"])
def test_invalid_dimension_is_a_usage_error(value):
    out = subprocess.run([sys.executable, "-m", "hamalg", "grade", "int[x](phi(x))"],
                         capture_output=True, text=True,
                         env={**os.environ, "HAMALG_DIM": value})
    assert out.returncode == 2
    assert out.stderr.startswith("error: HAMALG_DIM")
    assert "Traceback" not in out.stderr


def test_multiply_and_grade():
    out = run("multiply", "int[x](phi(x))", "int[x](pi(x))")
    assert out.returncode == 0
    assert parse_symbol(out.stdout.strip()) == parse_symbol(
        "int[x,y]( phi(x)*pi(y) )")
    out = run("grade", "int[x]( f(x)*pi(x)^2 )")
    assert out.stdout.strip() == "grade 2"
    out = run("grade", "int[x]( phi(x)^2 + pi(x)^2 )")
    assert out.returncode == 0
    assert "mixed" in out.stdout


def test_equals_exit_codes():
    assert run("equals", "int[x](phi(x)*D(phi,1)(x))", "0").returncode == 0
    bad = run("equals", "int[x](phi(x))", "int[x](pi(x))")
    assert bad.returncode == 1
    assert bad.stdout.strip() == "different"


def test_check_algebra_table():
    out = run("check", "algebra", "--seed", "42", "--samples", "4")
    assert out.returncode == 0
    for law in ("antisymmetry", "bilinearity", "leibniz", "jacobi",
                "closure", "grading"):
        assert law in out.stdout
    assert "algebra: PASS" in out.stdout


def test_quantize_schemes():
    out = run("quantize", "int[x]( phi(x)*pi(x) )", "--scheme", "weyl")
    assert out.returncode == 0
    assert "Phi(x)*Pi(x)" in out.stdout and "Pi(x)*Phi(x)" in out.stdout


def test_commutator_reduces_by_default():
    a = "qint[x]( (1/2)*Phi(x)^2 )"
    b = "qint[x]( (1/2)*Pi(x)^2 )"
    out = run("commutator", a, b)
    assert out.returncode == 0
    assert "delta0(0)*vol" in out.stdout
    raw = run("commutator", a, b, "--no-reduce")
    assert raw.returncode == 0
    assert raw.stdout != out.stdout


def test_correspondence_passes_for_quadratics():
    out = run("correspondence", "int[x]( (1/2)*phi(x)^2 )",
              "int[x]( (1/2)*pi(x)^2 )", "--scheme", "normal")
    assert out.returncode == 0
    assert "PASS" in out.stdout


def test_residual_identity_prints_the_combination():
    out = run("residual-identity", "--f", "f", "--g", "g")
    assert out.returncode == 0
    assert "delta0(0)*delta(x;1) - 2*delta0(1)*delta(x)" in out.stdout
    assert "(i*h)^2" in out.stdout


def test_lattice_verify_reports_convergence():
    out = run("lattice", "verify", "int[x]( f(x)*phi(x)*D(phi,1)(x)*pi(x) )",
              "int[x]( g(x)*pi(x)^2 )", "--seed", "3")
    assert out.returncode == 0
    assert "PASS" in out.stdout
    assert "order" in out.stdout
    csv = run("lattice", "verify", "int[x](phi(x)^2)", "int[x](pi(x)^2)",
              "--csv")
    assert csv.returncode == 0
    assert csv.stdout.startswith("N,delta,error")


def test_kg_flow_passes():
    out = run("kg-flow", "--n", "64", "--m", "2.5", "--t", "3")
    assert out.returncode == 0
    assert "PASS" in out.stdout


def test_quasiclassics_characteristics():
    out = run("quasiclassics", "characteristics", "--case", "oscillator",
              "--t-final", "1.0")
    assert out.returncode == 0
    assert "201 characteristics" in out.stdout
    caustic = run("quasiclassics", "characteristics", "--case", "oscillator",
                  "--t-final", "1.6")
    assert caustic.returncode == 1
    assert "caustic" in caustic.stderr


def test_quasiclassics_transport():
    out = run("quasiclassics", "transport", "--case", "free")
    assert out.returncode == 0
    # the quartic phase and amplitude are spline interpolants; their
    # residual sits above the closed-form tolerance and needs a looser one
    tight = run("quasiclassics", "transport", "--case", "quartic")
    assert tight.returncode == 1
    loose = run("quasiclassics", "transport", "--case", "quartic",
                "--tolerance", "1e-5")
    assert loose.returncode == 0


def test_quasiclassics_wkb():
    out = run("quasiclassics", "wkb", "--case", "oscillator")
    assert out.returncode == 0
    assert "roundoff" in out.stdout


def test_suite_quick_passes():
    out = run("suite", "quick")
    assert out.returncode == 0
    for k in range(1, 10):
        assert f"criterion {k} (" in out.stdout
    assert "suite (quick): PASS" in out.stdout


def test_json_output_is_byte_identical():
    a = run("residual-identity", "--json")
    b = run("residual-identity", "--json")
    assert a.stdout == b.stdout
    json.loads(a.stdout)
    c = run("check", "algebra", "--samples", "3", "--json")
    d = run("check", "algebra", "--samples", "3", "--json")
    assert c.stdout == d.stdout
    assert json.loads(c.stdout)["passed"] is True


def test_parse_errors_exit_two_with_location():
    out = run("bracket", "int[x]( phi(x )", "int[x](pi(x))")
    assert out.returncode == 2
    assert "line 1" in out.stderr
    assert run("definitely-not-a-command").returncode == 2
    assert run().returncode == 2


def test_division_by_zero_exits_two_with_location(capsys):
    assert cli.main(["grade", "phi(u)/0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: division by zero (line 1, column 8)")


def test_corrupted_canonicalizer_fails_the_suite(monkeypatch, capsys):
    """A broken rewrite engine must surface as exit 1 with counterexamples."""
    import hamalg._rewrite as rw
    real = rw.canonicalize_terms

    def lossy(terms, quantum=False, transfer=None):
        out = real(terms, quantum=quantum, transfer=transfer)
        return out[:-1] if len(out) > 1 else out

    monkeypatch.setattr(rw, "canonicalize_terms", lossy)
    code = cli.main(["suite", "quick", "--seed", "42"])
    text = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in text
    assert "inputs" in text
