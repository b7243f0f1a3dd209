import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minkflow
from minkflow import geometry
from minkflow.cli import _parse_expr, main
from minkflow.errors import InvalidParams
from minkflow.invariants import InvariantKind
from minkflow.flow import FlowGrid, FlowKind, stability_dt


def run(argv):
    return main(argv)


def exit_code(argv):
    """The code main returns, or the one argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# `catalog show` text of every registry entry: (expression, profile).
SHOWN_FORMS = {
    "translator-y": ("t + log(cosh(x))", "cosh(theta)"),
    "translator-x": ("asinh(exp(t - x))", "-sinh(theta)"),
    "translator-xi": ("t + exp(x)", "exp(-theta)"),
    "hyperbola-expander": ("sqrt(2*t + x**2)", "sqrt(2)/(2*sqrt(t))"),
    "screw-tanh": ("(1 - 2*t)*tanh(x)", "sqrt(exp(-2*theta) + 1/(2*t))"),
    "screw-tan": ("(2*t + 1)*tan(x)", "sqrt(-exp(-2*theta) + 1/(2*t))"),
    "screw-coth": ("(-2*t - 1)*coth(x)", "sqrt(exp(-2*theta) + 1/(2*t))"),
    "oval-coshcosh": ("acosh(exp(t)*cosh(x))",
                      "sqrt(cosh(2*theta) + coth(2*t))"),
    "wave-coshsinh": ("asinh(exp(t)*cosh(x))",
                      "sqrt(cosh(2*theta) + tanh(2*t))"),
    "wave-sinhsinh": ("asinh(exp(t)*sinh(x))",
                      "sqrt(cosh(2*theta) + coth(2*t))"),
    "wave-sinsin": ("asin(exp(-t)*sin(x))",
                    "sqrt(-cosh(2*theta) + 1/tanh(2*t))"),
    "interp-tan": ("atanh(tan(2*t)*tan(x))",
                   "sqrt(sinh(2*theta) + 1/tan(2*t))"),
    "euclid-circle": ("sqrt(-2*t - x**2)", "sqrt(2)/(2*sqrt(-t))"),
    "euclid-reaper": ("-t + log(cos(x))", "cos(theta)"),
    "euclid-oval": ("acosh(exp(-t)*cos(x))",
                    "sqrt(cos(2*theta) - 1/tanh(2*t))"),
    "euclid-wave": ("asinh(exp(-t)*cos(x))", "sqrt(cos(2*theta) - tanh(2*t))"),
}


class TestSelfsimCommand:
    def test_expansion_branch(self, tmp_path):
        out = tmp_path / "run"
        code = run(["selfsim", "--a", "0", "--b", "1", "--init", "0,-0.5",
                    "--s-max", "8", "--out", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "curve.csv", "classification.json",
                     "events.json"):
            assert (out / name).exists()
        rep = json.loads((out / "classification.json").read_text())
        assert rep["crosses_xi"] and rep["crosses_eta"]
        assert rep["ends"]["forward"]["curvature_limit"] == "zero"
        assert rep["ends"]["backward"]["curvature_limit"] == "zero"
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "s,tau,nu,theta,k,l"
        events = json.loads((out / "events.json").read_text())
        assert set(events) == {"blowups", "crossings", "inflections"}

    def test_determinism(self, tmp_path):
        args = ["selfsim", "--a", "0", "--b", "-1", "--init", "0,1",
                "--s-max", "10"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        for name in ("trajectory.csv", "curve.csv", "classification.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_refused_trajectory_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["selfsim", "--a", "1", "--b", "0", "--init", "0,0.5,705",
                    "--s-max", "6", "--out", str(out)])
        assert code == 3
        assert "not finite" in capsys.readouterr().err
        for name in ("trajectory.csv", "events.json", "curve.csv",
                     "classification.json"):
            assert not (out / name).exists()


    @pytest.mark.parametrize("flag, value", [("--s-max", "nan"),
                                             ("--s-max", "inf"),
                                             ("--a", "nan")])
    def test_non_finite_input_refused(self, tmp_path, flag, value):
        # Each used to hang in the ODE solver; each runs in a child with a
        # timeout so that a regression fails instead of stalling the suite.
        argv = {"--a": "0", "--b": "1", "--init": "0,-0.5", "--s-max": "8"}
        argv[flag] = value
        src = os.path.dirname(os.path.dirname(minkflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run(
            [sys.executable, "-m", "minkflow.cli", "selfsim",
             *(x for kv in argv.items() for x in kv),
             "--out", str(tmp_path / "run")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=60)
        assert out.returncode == 2
        assert "InvalidParams" in out.stderr and "finite" in out.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("extra, words", [
        (["--s-max", "-3"], "non-negative"),
        (["--init", "0,inf"], "initial state must be finite"),
        (["--init", "1"],
         "InvalidParams: --init takes 2 or 3 comma-separated numbers, not 1"),
        (["--init", "1,2,3,4"],
         "InvalidParams: --init takes 2 or 3 comma-separated numbers, not 4"),
        (["--init", "x,1"],
         "InvalidParams: --init takes comma-separated numbers, not 'x,1'"),
        # The blow-up threshold has no flag, so its refusal names --a, --b.
        (["--a", "1e308"], "|a| + |b| (--a, --b) must be at most max_float "
                           "/ (4 T^2) = 4.49e+291, got 1e+308")])
    def test_bad_span_or_state_refused(self, tmp_path, capsys, extra, words):
        out = tmp_path / "run"
        code = run(["selfsim", "--a", "0", "--b", "1", "--init", "0,-0.5",
                    "--out", str(out), *extra])
        assert code == 2
        assert words in capsys.readouterr().err
        assert not out.exists()

    # Q = nu^2 e^{b(tau^2 - nu^2)} at s = 0 overflowed math.exp: from
    # (3, 1e8) in (k, l) Q is past float64 and is not monitored; from
    # (0.004, 1e-200) e^E alone is past it, but Q = e^679 is not.
    @pytest.mark.parametrize("chart, init, log_q", [
        ("kl", "3,1e8", None),
        ("taunu", "0.004,1e-200", 2 * math.log(1e-200) + 1e8 * 0.004 ** 2)])
    def test_conserved_value_near_float_max(self, capsys, chart, init, log_q):
        assert run(["classify", "--a", "0", "--b", "1e8", "--chart", chart,
                    "--init", init, "--s-max", "0"]) == 0
        conserved = json.loads(capsys.readouterr().out)["conserved"]
        if log_q is None:
            assert math.isnan(conserved["value"])
            assert math.isnan(conserved["drift"])
            assert conserved["n_monitored"] == 0
        else:
            assert math.log(conserved["value"]) == pytest.approx(log_q,
                                                                 rel=1e-14)
            assert conserved["drift"] == 0.0
            assert conserved["n_monitored"] == 1

    def test_unknown_method_refused(self, capsys):
        # Measured stiffness picks the solver; there is no --method.
        with pytest.raises(SystemExit) as exc:
            run(["selfsim", "--a", "0", "--b", "1", "--method", "Radau"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method Radau" \
            in capsys.readouterr().err

    # Radau's first step size underflows to 0 at a = 1e200; DOP853 finds
    # no step at all at a = 1e308 in (k, l), where the blow-up threshold
    # does not bound a.
    @pytest.mark.parametrize("argv, words", [
        (["classify", "--a", "1e200", "--s-max", "1"],
         "LapackRadau failed at s=5.4841286688378366e-321: array must not "
         "contain infs or NaNs"),
        (["selfsim", "--chart", "kl", "--a", "1e308", "--s-max", "8"],
         "DOP853 failed at s=0: Required step size is less than spacing "
         "between numbers.")])
    def test_solver_failure_exits_3(self, tmp_path, capsys, argv, words):
        out = tmp_path / "run"
        code = run([*argv, "--b", "1", "--init", "0,-0.5", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == f"SolverFailed: {words}\n"
        assert captured.out == ""
        assert not out.exists()


class TestEvolveCommand:
    def test_catalog_initial(self, tmp_path):
        out = tmp_path / "ev"
        code = run(["evolve", "hyperbola-expander", "--t0", "0.5",
                    "--t1", "0.7", "--dx", "0.02", "--window", "-2", "2",
                    "--snapshots", "3", "--out", str(out)])
        assert code == 0
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert len(snaps) == 3
        first = snaps[0].read_text().splitlines()
        assert first[0].startswith("# t=")
        assert first[1] == "node,value"
        svg = (out / "evolve.svg").read_text()
        assert svg.count("<polyline") == 3
        assert "config-hash=" in svg

    def test_expression_initial(self, tmp_path):
        out = tmp_path / "ev"
        code = run(["evolve", "expr:0.3*x", "--t1", "0.01", "--dx", "0.05",
                    "--window", "-1", "1", "--snapshots", "2",
                    "--out", str(out)])
        assert code == 0
        data = np.genfromtxt(out / "snapshot_001.csv", delimiter=",",
                             skip_header=2)
        assert np.max(np.abs(data[:, 1] - 0.3 * data[:, 0])) < 1e-10

    def test_expression_outside_basis(self, tmp_path):
        code = run(["evolve", "expr:zeta(x)", "--t1", "0.1",
                    "--out", str(tmp_path)])
        assert code == 2

    def test_expression_code_not_run(self, tmp_path, capsys):
        payload = "__import__('sys').stdout.write('PAYLOAD RAN') and x"
        code = run(["evolve", f"expr:{payload}", "--t1", "0.1",
                    "--out", str(tmp_path / "ev")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unsupported syntax" in captured.err
        assert "PAYLOAD RAN" not in captured.err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("text, ref", [
        ("0.3*x", lambda x, t: 0.3 * x),
        ("sqrt(x)", lambda x, t: np.sqrt(x)),
        ("0.3*x+0.001*sqrt(0.05-t)",
         lambda x, t: 0.3 * x + 0.001 * np.sqrt(0.05 - t)),
        ("-x^2/4 + coth(t+2)", lambda x, t: -x ** 2 / 4 + 1 / np.tanh(t + 2)),
        ("cos(pi*x) + E", lambda x, t: np.cos(np.pi * x) + np.e),
        ("log(x+3, 2)", lambda x, t: np.log(x + 3) / np.log(2)),
        # ^ is **, so it binds tighter than * and /
        ("0.3*x^2/4", lambda x, t: 0.3 * x ** 2 / 4),
    ])
    def test_expression_accepted(self, text, ref):
        xs = np.linspace(0.1, 0.9, 5)
        np.testing.assert_allclose(_parse_expr(text, "x")(xs, 0.01),
                                   ref(xs, 0.01), rtol=1e-14)

    @pytest.mark.parametrize("text, words", [
        ("x.real", "unsupported syntax (Attribute)"),
        ("sin(x=1)", "unsupported syntax (Call)"),
        ("(lambda: x)()", "unsupported syntax (Call)"),
        ("'x'", "unsupported syntax (Constant)"),
        ("1j*x", "unsupported syntax (Constant)"),
        ("x[0]", "unsupported syntax (Subscript)"),
        ("x if t else 1", "unsupported syntax (IfExp)"),
        ("x +", "not a formula"),
        ("sqrt()", "does not parse"),
        ("eta + x", "unknown symbols in expression: {eta}"),
        ("zeta(x)", "functions ['zeta'] are outside the supported basis"),
        ("sqrt(x+2, t)", "sqrt takes 1 argument(s), got 2"),
        ("log(x, 2, 3)", "log takes 1 or 2 argument(s), got 3"),
        # Deep enough to exhaust Python's recursion limit if it were run.
        pytest.param("+".join(["x"] * 495), "nests more than 100 levels deep",
                     id="x+x+...+x (495 terms)"),
    ])
    def test_expression_refused(self, text, words):
        with pytest.raises(InvalidParams, match=re.escape(words)):
            _parse_expr(text, "x")

    def test_stability_violation_exit(self, tmp_path):
        code = run(["evolve", "hyperbola-expander", "--t0", "0.5",
                    "--t1", "0.6", "--dx", "0.02", "--dt", "0.01",
                    "--out", str(tmp_path)])
        assert code == 3

    def test_time_outside_domain(self, tmp_path, capsys):
        for times in (["--t0", "-1", "--t1", "1"],
                      ["--t0", "0.5", "--t1", "inf"]):
            code = run(["evolve", "hyperbola-expander", *times,
                        "--out", str(tmp_path)])
            assert code == 2
            assert "outside the time domain (0, inf)" in capsys.readouterr().err

    def test_non_finite_initial_values(self, tmp_path, capsys):
        code = run(["evolve", "expr:sqrt(x)", "--window", "-1", "1",
                    "--t1", "0.1", "--out", str(tmp_path)])
        assert code == 2
        assert "values must be finite" in capsys.readouterr().err

    # Every number is a float64, so these are inf or nan, not a Python
    # exception or a complex value whose imaginary part is dropped.
    @pytest.mark.parametrize("text", ["1/0+x", "10**400*x",
                                      "0.3*x+log(-1)", "0.3*x+(-1)**0.5"])
    def test_values_not_real_and_finite_refused(self, tmp_path, capsys,
                                                text):
        code = run(["evolve", f"expr:{text}", "--t1", "0.01",
                    "--out", str(tmp_path / "ev")])
        assert code == 2
        assert capsys.readouterr().err == \
            "ValueError: flow grid values must be finite\n"
        assert not (tmp_path / "ev").exists()

    def test_non_finite_state_exit(self, tmp_path, capsys):
        code = run(["evolve", "expr:0.3*x+0.001*sqrt(0.05-t)", "--window",
                    "-1", "1", "--dx", "0.05", "--t1", "0.1",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "DegenerateSlope" in capsys.readouterr().err

    def test_euclidean_entry_refused(self, tmp_path, capsys):
        code = run(["evolve", "euclid-reaper", "--t0", "0", "--t1", "0.5",
                    "--window", "-0.5", "0.5", "--dx", "0.02",
                    "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "euclid-reaper is a euclidean entry" in err
        assert not list(tmp_path.iterdir())

    def test_non_positive_dx(self, tmp_path, capsys):
        for dx in ("-0.01", "0", "nan"):
            code = run(["evolve", "hyperbola-expander", "--t0", "0.5",
                        "--t1", "0.6", "--dx", dx, "--out", str(tmp_path)])
            assert code == 2
            assert "--dx must be positive" in capsys.readouterr().err

    def test_non_positive_dt(self, tmp_path, capsys):
        code = run(["evolve", "hyperbola-expander", "--t0", "0.5",
                    "--t1", "0.6", "--dt", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "max_dt must be positive" in capsys.readouterr().err

    def test_explicit_dt_path(self, tmp_path):
        args = ["evolve", "hyperbola-expander", "--t0", "0.5", "--t1",
                "0.55", "--dx", "0.02", "--window", "-2", "2",
                "--snapshots", "3"]
        nodes = np.linspace(-2.0, 2.0, 201)
        dt = 0.5 * stability_dt(FlowGrid(FlowKind.GRAPH_Y, nodes,
                                         np.sqrt(nodes ** 2 + 1.0), 0.5))
        bdf, euler = tmp_path / "bdf", tmp_path / "euler"
        assert run(args + ["--out", str(bdf)]) == 0
        assert run(args + ["--dt", repr(dt), "--out", str(euler)]) == 0

        def times(out):
            return [p.read_text().splitlines()[0]
                    for p in sorted(out.glob("snapshot_*.csv"))]

        assert times(euler) == times(bdf)
        data = np.genfromtxt(euler / "snapshot_002.csv", delimiter=",",
                             skip_header=2)
        err = np.max(np.abs(data[:, 1] - np.sqrt(data[:, 0] ** 2 + 1.1)))
        assert err <= 5 * (0.02 ** 2 + dt)

    def test_csv_initial_reversed(self, tmp_path):
        # A line with direction (-1, 1/2) is written with x decreasing.
        assert run(["invariant", "make", "--kind", "line", "--params",
                    '{"direction": [-1, 0.5]}', "--span", "-3", "3",
                    "--n", "601", "--out", str(tmp_path)]) == 0
        out = tmp_path / "ev"
        assert run(["evolve", f"csv:{tmp_path / 'invariant-line.csv'}",
                    "--t1", "0.01", "--dx", "0.1", "--window", "-1", "1",
                    "--out", str(out)]) == 0
        data = np.genfromtxt(out / "snapshot_000.csv", delimiter=",",
                             skip_header=2)
        assert np.max(np.abs(data[:, 1] + 0.5 * data[:, 0])) < 1e-15

    def test_csv_window_past_range_refused(self, tmp_path, capsys):
        assert run(["invariant", "make", "--kind", "hyperbola", "--span",
                    "-1", "1", "--n", "601", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "ev"
        path = tmp_path / "invariant-hyperbola.csv"
        for kind, window, words in (
                ("graph_y", ("-3", "3"), "x range [-1.1752, 1.1752]"),
                ("lightcone", ("-0.3", "0.3"),
                 "eta range [-2.71828, -0.367879]")):
            code = run(["evolve", f"csv:{path}", "--kind", kind, "--t1",
                        "0.01", "--dx", "0.1", "--window", *window,
                        "--boundary", "frozen", "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert (f"InvalidParams: --window {' '.join(window)} reaches "
                    f"past the {words} of {path}") in err
        assert not out.exists()

    def test_csv_round_trip(self, tmp_path):
        # The hyperbola y^2 - x^2 = 1 expands as y^2 - x^2 = 1 + 2t; in the
        # diagonal basis it is xi = -(1 + 2t) / eta.
        xs = np.linspace(-3.0, 3.0, 2001)
        path = tmp_path / "curve.csv"
        geometry.write_curve_csv(
            geometry.frame_from_graph(xs, np.sqrt(xs * xs + 1.0)), path)
        for kind, window, exact in (
                ("graph_y", ("-2", "2"),
                 lambda u, t: np.sqrt(u * u + 1.0 + 2.0 * t)),
                ("lightcone", ("-3", "-0.5"),
                 lambda u, t: -(1.0 + 2.0 * t) / u)):
            out = tmp_path / kind
            assert run(["evolve", f"csv:{path}", "--kind", kind, "--t1",
                        "0.05", "--dx", "0.05", "--window", *window,
                        "--snapshots", "2", "--out", str(out)]) == 0
            for name, t, tol in (("snapshot_000.csv", 0.0, 1e-5),
                                 ("snapshot_001.csv", 0.05, 2e-3)):
                data = np.genfromtxt(out / name, delimiter=",",
                                     skip_header=2)
                mid = data[len(data) // 3: 2 * len(data) // 3]
                assert np.max(np.abs(mid[:, 1] - exact(mid[:, 0], t))) < tol

    def test_non_finite_window_refused(self, tmp_path, capsys):
        argv = ["evolve", "translator-y", "--t1", "0.1",
                "--out", str(tmp_path / "o")]
        assert run([*argv, "--window", "-2", "inf"]) == 2
        assert ("InvalidParams: --window takes two finite numbers, not "
                "-2 inf") in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": [-math.inf, 2]}))
        assert "-Infinity" in cfg.read_text()
        assert run(["--config", str(cfg), *argv]) == 2
        assert ("InvalidParams: --window takes two finite numbers, not "
                "-inf 2") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_kind_without_graph_form_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "curvature_angle"}))
        assert run(["--config", str(cfg), "evolve", "expr:1", "--t1", "0.1",
                    "--out", str(tmp_path / "o")]) == 2
        assert "--config key 'kind' has a bad value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, words", [
        (["hyperbola-expander", "--t0", "0.5", "--t1", "0.4"],
         "--t1 must be finite and not precede --t0, not --t0 0.5 --t1 0.4"),
        (["expr:x*0.3", "--t1", "inf"],
         "--t1 must be finite and not precede --t0, not --t0 0 --t1 inf"),
        (["expr:x*0.3", "--t1", "0.01", "--dx", "1", "--window", "-1", "1"],
         "--dx 1 over --window -1 1 gives 3 nodes; the flow needs 5")])
    def test_bad_times_or_too_few_nodes_refused(self, tmp_path, capsys, argv,
                                                words):
        out = tmp_path / "ev"
        assert run(["evolve", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"InvalidParams: {words}\n"
        assert not out.exists()

    def test_svg_determinism(self, tmp_path):
        args = ["evolve", "translator-y", "--t1", "0.05", "--dx", "0.05",
                "--window", "-1", "1", "--snapshots", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "evolve.svg").read_bytes() == (b / "evolve.svg").read_bytes()


class TestCatalogCommand:
    def test_list(self, capsys):
        assert run(["catalog", "list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16

    def test_show(self, capsys):
        assert run(["catalog", "show", "translator-y"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kind"] == "graph_y"
        assert info["curvature_profile"] == "cosh(theta)"

    def test_unknown_name_exit_code(self, capsys):
        assert run(["catalog", "show", "nope"]) == 4

    @pytest.mark.parametrize("argv, words", [
        (["show"], "the following arguments are required: name"),
        (["list", "translator-y"], "unrecognized arguments: translator-y"),
        (["lengths", "translator-x"],
         "translator-x has no finite-length series; those with one: "
         "translator-y, screw-tanh, wave-sinhsinh, wave-coshsinh, "
         "oval-coshcosh, interp-tan")])
    def test_name_checked_per_action(self, capsys, argv, words):
        assert exit_code(["catalog", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f": {words}\n")
        assert captured.out == ""

    # --all names every length series; list and show take no --all.
    @pytest.mark.parametrize("argv, words", [
        (["list", "--all"], "unrecognized arguments: --all"),
        (["show", "translator-y", "--all"], "unrecognized arguments: --all"),
        (["lengths", "translator-y", "--all"],
         "argument --all: not allowed with argument name")])
    def test_ignored_all_refused(self, capsys, argv, words):
        assert exit_code(["catalog", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f"error: {words}\n")
        assert captured.out == ""

    # --points sets the length series' samples; list and show take none.
    @pytest.mark.parametrize("argv", [["list"], ["show", "translator-y"]])
    def test_ignored_points_refused(self, capsys, argv):
        assert exit_code(["catalog", *argv, "--points", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(
            f"minkflow catalog {argv[0]}: error: unrecognized arguments: "
            "--points 0\n")
        assert captured.out == ""

    def test_lengths_unknown_name_exit_code(self, capsys):
        assert run(["catalog", "lengths", "no-such"]) == 4
        assert capsys.readouterr().err.startswith(
            "UnknownSolution: 'no-such' is not in the registry; known names: ")

    def test_show_expressions(self, capsys):
        shown = {}
        for name in SHOWN_FORMS:
            assert run(["catalog", "show", name]) == 0
            info = json.loads(capsys.readouterr().out)
            shown[name] = (info["expression"], info["curvature_profile"])
        assert shown == SHOWN_FORMS

    def test_lengths(self, tmp_path, capsys):
        out = tmp_path / "len"
        code = run(["catalog", "lengths", "translator-y", "--points", "5",
                    "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        rows = (out / "lengths.csv").read_text().splitlines()
        assert rows[0] == "series,name,t,length"
        assert len(rows) == 6
        lengths = [float(r.split(",")[-1]) for r in rows[1:]]
        assert np.max(np.abs(np.array(lengths) - np.pi)) < 1e-6


class TestVerifyCommand:
    def test_all_and_names_refused(self, tmp_path, capsys):
        # --all used to win, and bogus was never checked.
        out = tmp_path / "v"
        assert exit_code(["verify", "--all", "--names", "bogus",
                          "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("minkflow verify: error: argument "
                                     "--names: not allowed with argument "
                                     "--all\n")
        assert captured.out == "" and not out.exists()

    def test_subset(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run(["verify", "--names",
                    "translator-y,euclid-reaper,interp-tan",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "verify.json").read_text())
        assert [p["name"] for p in payload] == [
            "translator-y", "euclid-reaper", "interp-tan"]
        assert all(p["passed"] for p in payload)

    def test_unknown_name_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run(["verify", "--names", "translator-y,bogus",
                    "--out", str(out)]) == 4
        assert not (out / "verify.json").exists()
        assert "'bogus' is not in the registry" in capsys.readouterr().err


class TestInvariantCommand:
    def test_make_and_check(self, tmp_path, capsys):
        out = tmp_path / "inv"
        assert run(["invariant", "make", "--kind", "hyperbola",
                    "--params", '{"radius": 1.0}', "--span", "-4", "4",
                    "--out", str(out)]) == 0
        assert (out / "invariant-hyperbola.csv").exists()
        capsys.readouterr()
        assert run(["invariant", "check", "--kind", "hyperbola",
                    "--params", '{"radius": 1.0}', "--span", "-4", "4",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "invariance.json").read_text())
        assert payload["passed"] and payload["deviation"] < 1e-8


    # span of each kind, sampled wider than the window its motion maps
    # the probes into, and the probe window that check takes
    KIND_ARGS = {
        "line": ["--span", "-10", "10"],
        "hyperbola": ["--params", '{"radius": 1.0}', "--span", "-4", "4"],
        "mink-log-spiral": ["--params", '{"alpha": 0.5}', "--span", "0.05",
                            "12"],
        "exp-diagonal": ["--span", "-6", "2.5"],
    }
    PROBE_ARGS = {
        "line": ["--probe-fraction", "0.3", "0.7"],
        "mink-log-spiral": ["--probe-fraction", "0.05", "0.45"],
        "exp-diagonal": ["--probe-fraction", "0.1", "0.55"],
    }

    @pytest.mark.parametrize("kind", [k.value for k in InvariantKind])
    def test_every_kind_makes_and_checks(self, tmp_path, capsys, kind):
        argv = ["--kind", kind, *self.KIND_ARGS[kind], "--out", str(tmp_path)]
        assert run(["invariant", "make", *argv]) == 0
        assert run(["invariant", "check", *argv,
                    *self.PROBE_ARGS.get(kind, ())]) == 0
        payload = json.loads((tmp_path / "invariance.json").read_text())
        assert payload["passed"]

    @pytest.mark.parametrize("params, words", [
        ("{}", "mink-log-spiral needs the parameter 'alpha'"),
        ("[1]", "--params must be a JSON object, not '[1]'"),
        ("0.5", "--params must be a JSON object"),
        ('{"alpha": "x"}',
         "mink-log-spiral parameter 'alpha' must be a finite number, "
         "not 'x'"),
        ('{"alpha": true}',
         "mink-log-spiral parameter 'alpha' must be a finite number"),
        ('{"alpha": NaN}',
         "mink-log-spiral parameter 'alpha' must be a finite number"),
        ('{"alpha": 0.5, "beta": 1}',
         "mink-log-spiral takes no parameter 'beta'; it takes ['alpha']")])
    def test_bad_params_refused(self, capsys, params, words):
        code = run(["invariant", "check", "--kind", "mink-log-spiral",
                    "--params", params, "--span", "0.05", "12"])
        assert code == 2
        assert f"InvalidParams: {words}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params, words", [
        ("hyperbola", '{"radius": 0}',
         "hyperbola parameter 'radius' must be a non-zero finite number, "
         "not 0"),
        ("hyperbola", '{"radius": NaN}',
         "hyperbola parameter 'radius' must be a non-zero finite number"),
        ("hyperbola", '{"radius": 1, "bogus": 2}',
         "hyperbola takes no parameter 'bogus'"),
        ("line", '{"direction": 3}',
         "line parameter 'direction' must be two finite numbers, not 3"),
        ("line", '{"direction": [1, 0, 0]}',
         "line parameter 'direction' must be two finite numbers"),
        ("line", '{"direction": [1, "0"]}',
         "line parameter 'direction' must be two finite numbers"),
        ("line", '{"direction": [1, Infinity]}',
         "line parameter 'direction' must be two finite numbers"),
        ("exp-diagonal", '{"alpha": 0.5}',
         "exp-diagonal takes no parameter 'alpha'; it takes none")])
    def test_bad_param_values_refused(self, tmp_path, capsys, kind, params,
                                      words):
        code = run(["invariant", "make", "--kind", kind, "--params", params,
                    "--span", "-4", "4", "--out", str(tmp_path / "inv")])
        assert code == 2
        assert f"InvalidParams: {words}" in capsys.readouterr().err
        assert not (tmp_path / "inv").exists()

    @pytest.mark.parametrize("extra, words", [
        (["--t-probe", "x"],
         "--t-probe takes comma-separated numbers, not 'x'"),
        (["--t-probe", "0.5,-2"],
         "probe time t=-2 is outside the motion's time domain (-1, inf)"),
        (["--t-probe", "nan"], "probe time t=nan is outside")])
    def test_bad_probe_times_refused(self, capsys, extra, words):
        code = run(["invariant", "check", "--kind", "mink-log-spiral",
                    "--params", '{"alpha": 0.5}', "--span", "0.05", "12",
                    *extra])
        assert code == 2
        assert f"InvalidParams: {words}" in capsys.readouterr().err

    # A probe time whose motion overflows float64 is refused, not traced.
    @pytest.mark.parametrize("kind, span, t_probe", [
        ("exp-diagonal", ["1", "12"], "1e3"),
        ("hyperbola", ["-4", "4"], "1e300")])
    def test_probe_time_past_float_range_refused(self, capsys, kind, span,
                                                 t_probe):
        code = run(["invariant", "check", "--kind", kind, "--span", *span,
                    "--t-probe", t_probe])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"InvalidParams: probe time t={float(t_probe):g} (--t-probe) "
            "maps the curve beyond the float64 range\n")
        assert captured.out == ""

    @pytest.mark.parametrize("action, extra, words", [
        ("check", ["--span", "nan", "4"], "--span takes two finite numbers "
         "in increasing order, not nan 4"),
        ("make", ["--span", "-4", "inf"], "--span takes two finite numbers"),
        ("check", ["--span", "4", "-4"], "--span takes two finite numbers "
         "in increasing order, not 4 -4"),
        ("check", ["--span", "-4", "4", "--probe-fraction", "0", "2"],
         "--probe-fraction takes two fractions in [0, 1] in increasing "
         "order, not 0 2"),
        ("check", ["--span", "-4", "4", "--probe-fraction", "-0.1", "0.5"],
         "--probe-fraction takes two fractions in [0, 1]"),
        ("check", ["--span", "-4", "4", "--probe-fraction", "0.6", "0.4"],
         "--probe-fraction takes two fractions in [0, 1]"),
        ("check", ["--span", "-4", "4", "--probe-fraction", "nan", "0.5"],
         "--probe-fraction takes two fractions in [0, 1]")])
    def test_bad_span_or_probe_fraction_refused(self, tmp_path, capsys,
                                                action, extra, words):
        out = tmp_path / "inv"
        code = run(["invariant", action, "--kind", "hyperbola", *extra,
                    "--out", str(out)])
        assert code == 2
        assert f"InvalidParams: {words}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["invariant", "check", "--kind", "hyperbola", "--span", "-4", "4"],
    ["verify", "--names", "translator-y"]])
@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_bad_tol_refused(tmp_path, capsys, argv, tol):
    out = tmp_path / "out"
    assert run([*argv, "--tol", tol, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (f"InvalidParams: --tol must be positive and finite, not {tol}"
            in captured.err)
    assert captured.out == "" and not out.exists()


# Each command declares only the options it reads; any other is refused
# before the command runs.
@pytest.mark.parametrize("argv, extra", [
    (["evolve", "hyperbola-expander", "--t1", "0.6"], ["--tol", "nan"]),
    (["selfsim", "--a", "0", "--b", "1"], ["--tol", "nan"]),
    (["classify", "--a", "0", "--b", "1"], ["--tol", "nan"]),
    (["catalog", "list"], ["--tol", "nan"]),
    (["catalog", "show", "translator-y"], ["--tol", "nan"]),
    (["catalog", "lengths", "translator-y"], ["--tol", "nan"]),
    (["plot", "curve.csv"], ["--tol", "nan"]),
    (["catalog", "list"], ["--out", "d"]),
    (["catalog", "show", "translator-y"], ["--out", "d"]),
    (["plot", "curve.csv"], ["--out", "d"]),
    (["invariant", "make", "--kind", "hyperbola"], ["--t-probe", "nonsense"]),
    (["invariant", "make", "--kind", "hyperbola"],
     ["--probe-fraction", "5", "9"]),
    (["invariant", "make", "--kind", "hyperbola"], ["--tol", "nan"])])
def test_option_of_another_command_refused(tmp_path, monkeypatch, capsys,
                                           argv, extra):
    monkeypatch.chdir(tmp_path)
    assert exit_code([*argv, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"error: unrecognized arguments: {' '.join(extra)}\n")
    assert captured.out == "" and not list(tmp_path.iterdir())


def test_refusal_names_the_nested_command(capsys):
    argv = ["catalog", "show", "translator-y", "--tol", "nan"]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: minkflow catalog show ")
    assert err.endswith("minkflow catalog show: error: unrecognized "
                        "arguments: --tol nan\n")


def test_word_after_unknown_option_refused_with_it(capsys):
    # nan follows --tol, so it is refused with it, not read as NAME
    assert exit_code(["catalog", "lengths", "--all", "--tol", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: minkflow catalog lengths ")
    assert err.endswith("minkflow catalog lengths: error: unrecognized "
                        "arguments: --tol nan\n")


def test_optional_output_stays_on_stdout(tmp_path, monkeypatch, capsys):
    # Without --out these commands write no file, not even to out/.
    monkeypatch.chdir(tmp_path)
    assert run(["classify", "--a", "0", "--b", "1", "--s-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["crosses_xi"] is not None
    assert run(["verify", "--names", "translator-y"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run(["catalog", "lengths", "translator-y", "--points", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "series,name,t,length" and len(rows) == 4
    assert run(["invariant", "check", "--kind", "hyperbola",
                "--span", "-4", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, words", [
    (["evolve", "hyperbola-expander", "--t0", "0.5", "--t1", "0.6",
      "--snapshots", "-3"], "--snapshots must be a positive count, not -3"),
    (["evolve", "hyperbola-expander", "--t0", "0.5", "--t1", "0.6",
      "--snapshots", "0"], "--snapshots must be a positive count, not 0"),
    (["catalog", "lengths", "--all", "--points", "0"],
     "--points must be a positive count, not 0"),
    (["catalog", "lengths", "translator-y", "--points", "-2"],
     "--points must be a positive count, not -2"),
    (["invariant", "make", "--kind", "line", "--n", "0"],
     "--n must be a positive count, not 0"),
    (["invariant", "check", "--kind", "hyperbola", "--n", "-1"],
     "--n must be a positive count, not -1")])
def test_non_positive_count_refused(tmp_path, capsys, argv, words):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert f"InvalidParams: {words}" in capsys.readouterr().err
    assert not out.exists()


def _readme_cli_commands():
    """The minkflow commands of the README's CLI block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("minkflow ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # run in order: plot reads the curve that selfsim writes
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert len(commands) >= 9
    for argv in commands:
        assert main(argv) == 0, argv


def test_plot_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["selfsim", "--a", "0", "--b", "1", "--init", "0,-1",
                "--s-max", "2", "--out", str(out)]) == 0
    target = tmp_path / "curve.svg"
    assert run(["plot", str(out / "curve.csv"),
                "--out-file", str(target)]) == 0
    text = target.read_text()
    assert text.startswith("<?xml")
    assert text.count("<polyline") == 1


def test_plot_refuses_non_finite_row(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["selfsim", "--a", "0", "--b", "1", "--init", "0,-1",
                "--s-max", "2", "--out", str(out)]) == 0
    rows = (out / "curve.csv").read_text().splitlines()
    cells = rows[3].split(",")
    cells[2] = "nan"
    rows[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    target = tmp_path / "curve.svg"
    assert run(["plot", str(bad), "--out-file", str(target)]) == 2
    assert "data row 3 has a non-finite value" in capsys.readouterr().err
    assert not target.exists()


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.0, "b": 1.0, "init": "0,-1",
                               "s_max": 2.0, "out": str(tmp_path / "o")}))
    assert run(["--config", str(cfg), "classify",
                "--a", "9", "--b", "9"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ends"]["forward"]["curvature_limit"] == "finite"


def test_verify_all_cli(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--all", "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert len(payload) == 16 and all(p["passed"] for p in payload)


def test_evolve_wave_over_period(tmp_path):
    out = tmp_path / "wave"
    code = main(["evolve", "wave-sinsin", "--t0", "0.3", "--t1", "0.5",
                 "--dx", "0.02", "--window", "-3.14159", "3.14159",
                 "--snapshots", "3", "--out", str(out)])
    assert code == 0
    svg = (out / "evolve.svg").read_text()
    assert svg.count("<polyline") == 3


def test_lengths_all_series(tmp_path, capsys):
    out = tmp_path / "lens"
    assert main(["catalog", "lengths", "--all", "--points", "4",
                 "--out", str(out)]) == 0
    rows = (out / "lengths.csv").read_text().splitlines()
    series = {r.split(",")[0] for r in rows[1:]}
    assert series == set("ABCDEF")


class TestConfigFile:
    def run_config(self, tmp_path, values, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        return run(["--config", str(cfg), *argv])

    def test_unknown_key(self, tmp_path, capsys):
        for key in ("func", "command", "points"):
            code = self.run_config(tmp_path, {key: 1},
                                   ["classify", "--a", "0", "--b", "1"])
            assert code == 2
            assert f"--config key {key!r} is not an option of classify" \
                in capsys.readouterr().err

    @pytest.mark.parametrize("key, argv", [
        ("points", ["catalog", "list"]),
        ("t_probe", ["invariant", "make", "--kind", "line"]),
        ("tol", ["invariant", "make", "--kind", "line"])])
    def test_nested_command_named(self, tmp_path, capsys, key, argv):
        assert self.run_config(tmp_path, {key: 1}, argv) == 2
        assert (f"--config key {key!r} is not an option of "
                f"{' '.join(argv[:2])}; expected one of ") \
            in capsys.readouterr().err

    # The mutually exclusive options stay exclusive when --config sets one.
    @pytest.mark.parametrize("values, argv, words", [
        ({"all": True}, ["catalog", "lengths", "translator-y"],
         "name and all exclude each other"),
        ({"names": "translator-y"}, ["verify", "--all"],
         "all and names exclude each other")])
    def test_exclusive_options_refused(self, tmp_path, capsys, values, argv,
                                       words):
        assert self.run_config(tmp_path, values, argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"InvalidParams: --config: {words}\n"
        assert captured.out == ""

    def test_method_key_refused(self, tmp_path, capsys):
        code = self.run_config(tmp_path, {"method": "Radau"},
                               ["selfsim", "--a", "0", "--b", "1"])
        assert code == 2
        assert "--config key 'method' is not an option of selfsim" \
            in capsys.readouterr().err

    def test_bad_value(self, tmp_path, capsys):
        argv = ["evolve", "hyperbola-expander", "--t0", "0.5", "--t1", "0.6",
                "--out", str(tmp_path / "o")]
        for key, val in (("dx", "abc"), ("dx", None), ("window", 1.0),
                         ("window", [-1, "x"]), ("kind", "nope"),
                         ("snapshots", 2.5), ("boundary", True)):
            assert self.run_config(tmp_path, {key: val}, argv) == 2
            assert f"--config key {key!r} has a bad value" \
                in capsys.readouterr().err
        assert self.run_config(tmp_path, {"all": "yes"}, ["verify"]) == 2
        assert not (tmp_path / "o").exists()

    def test_values_coerced(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = self.run_config(
            tmp_path, {"window": [-1, 1], "dx": 0.05, "snapshots": "2",
                       "t1": 0.52, "out": str(out)},
            ["evolve", "hyperbola-expander", "--t0", "0.5", "--t1", "9"])
        assert code == 0
        capsys.readouterr()
        rows = (out / "snapshot_001.csv").read_text().splitlines()
        assert rows[0] == "# t=0.52000000000000002"
        assert len(rows) == 2 + 41


class TestColdStart:
    """Commands that need no symbolic or ODE work load neither sympy nor
    scipy; each check runs in a fresh interpreter."""

    HEAVY = ("sympy", "scipy")

    def loaded(self, code, cwd):
        src = os.path.dirname(os.path.dirname(minkflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted("
                 f"m for m in sys.modules if m.split('.')[0] in {self.HEAVY})))")
        out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_import_cli(self, tmp_path):
        loaded = self.loaded("import minkflow.cli", tmp_path)
        for mod in ("sympy", "scipy.integrate", "scipy.sparse",
                    "scipy.spatial", "scipy.optimize"):
            assert mod not in loaded

    @pytest.mark.parametrize("argv", [["catalog", "list"],
                                      ["plot", "curve.csv"],
                                      ["catalog", "show", "oval-coshcosh"],
                                      ["verify", "--all"]])
    def test_light_commands(self, tmp_path, argv):
        xs = np.linspace(-1.0, 1.0, 21)
        geometry.write_curve_csv(
            geometry.frame_from_graph(xs, np.sqrt(xs * xs + 1.0)),
            str(tmp_path / "curve.csv"))
        code = ("import sys\nfrom minkflow.cli import main\n"
                f"assert main({argv!r}) == 0")
        assert self.loaded(code, tmp_path) == []

    # Sampling a closed form compiles its text to numpy: no command that
    # only samples one loads sympy.  The --dt refusal, the arc lengths and
    # the invariance checks load no scipy either.
    @pytest.mark.parametrize("argv, rc, heavy", [
        (["evolve", "hyperbola-expander", "--t0", "0.5", "--t1", "2",
          "--dt", "0.1"], 3, []),
        (["catalog", "lengths", "--all", "--points", "3"], 0, []),
        (["evolve", "hyperbola-expander", "--t0", "0.5", "--t1", "0.52",
          "--dx", "0.1", "--window", "-1", "1"], 0, ["scipy"]),
        (["evolve", "expr:0.3*x^2/4 + coth(t+2)", "--t1", "0.01",
          "--dx", "0.1", "--window", "-1", "1"], 0, ["scipy"]),
        (["invariant", "check", "--kind", "hyperbola", "--params",
          '{"radius": 1.0}', "--span", "-4", "4"], 0, []),
        (["invariant", "check", "--kind", "mink-log-spiral", "--params",
          '{"alpha": 0.5}', "--span", "0.05", "12"], 0, []),
    ])
    def test_sympy_free_commands(self, tmp_path, argv, rc, heavy):
        code = ("import sys\nfrom minkflow.cli import main\n"
                f"assert main({argv!r}) == {rc}")
        loaded = self.loaded(code, tmp_path)
        assert sorted({m.split(".")[0] for m in loaded}) == heavy
