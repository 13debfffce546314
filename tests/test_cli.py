import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracshape import cli
from fracshape.cli import main
from fracshape.domains import ProjectionError, boundary_distance, ellipsoid
from fracshape.frlap import FrlapResult
from fracshape.measures import halton_points
from fracshape.specfun import FracParams, gamma_ns


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestConstants:

    def test_defaults(self, capsys):
        summary = run_json(capsys, "constants")
        assert summary["command"] == "constants"
        assert summary["params"] == {"n": "2", "s": "0.5"}
        assert summary["results"]["gamma_ns"] == pytest.approx(2.0 / math.pi, rel=1e-15)
        assert summary["results"]["c_ns"] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_order_override(self, capsys):
        summary = run_json(capsys, "constants", "--s", "0.25")
        want = gamma_ns(FracParams(2, 0.25))
        assert summary["results"]["gamma_ns"] == pytest.approx(want, rel=1e-15)
        assert summary["params"]["s"] == "0.25"


class TestErrors:

    @pytest.mark.parametrize("argv", [
        ("constants", "--s", "1.5"),
        ("constants", "--n", "2.5"),
        ("no-such-command",),
        ("seminorm-ratio",),                          # missing required --eps
        ("critical-plane", "--domain", "gadget"),
        ("critical-plane", "--domain", "ball", "--e", "0,0"),
        ("slab-measure", "--domain", "ball", "--gamma", "0.5"),
        ("torsion-check", "--domain", "ball:2"),
        ("torsion-check", "--domain", "ellipsoid:x"),
        ("torsion-check", "--domain", "bump:1e-3"),
        ("critical-plane", "--domain", "ball:1:junk"),
        ("critical-plane", "--domain", "ball", "--seed", "-1"),
        ("critical-plane", "--domain", "ball", "--e", "1e308,1e308"),  # norm overflows
        ("constants", "--n", "400"),                  # gamma(200.5) overflows
        ("critical-plane", "--domain", "ball:1e300"),  # squared coordinates overflow
        ("boundary-integral", "--domain", "bump:1e-3", "--n", "1000000000000000"),
        ("boundary-integral", "--domain", "bump:1e-3", "--n", "10000001"),
        ("seminorm-ratio", "--eps", "0.01", "--n-pairs", "1000000000000000"),
        ("seminorm-ratio", "--eps", "0.01", "--n-pairs", "10000001"),
        ("torsion-check", "--min-dist", "0.05"),      # the quadrature's inner radius
        ("torsion-check", "--min-dist", "0.01"),
        ("critical-plane", "--domain", "bump:1e-3", "--seed", "18446744073709551616"),
        ("slab-measure", "--domain", "ball", "--seed", str(10**400)),
        ("counterexample-scan", "--seed", "18446744073709551616"),
        ("lemma-check", "--seed", "18446744073709551616"),
        # past the scan threshold's scale on either side; a subnormal bump
        # width overflows the profile in a divide
        *[(command, "--domain", domain)
          for command in ("torsion-check", "critical-plane", "slab-measure", "boundary-integral")
          for domain in ("ball:1e4", "bump:5e-324:1.03125", "ball:1e-4")],
    ])
    def test_invalid_invocations_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]

    def test_integer_flags_reject_scientific_notation(self, capsys):
        code, _, err = run(capsys, "seminorm-ratio", "--eps", "0.01",
                           "--n-pairs", "1e4")
        assert code == 2
        assert "n-pairs" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv, flag", [
        (("boundary-integral", "--domain", "bump:1e-3", "--n"), "n"),
        (("seminorm-ratio", "--eps", "0.01", "--n-pairs"), "n-pairs"),
    ])
    def test_oversized_sample_counts_name_their_flag(self, capsys, argv, flag):
        # 10^15 samples would ask numpy for petabytes
        code, out, err = run(capsys, *argv, "1000000000000000")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            f"{flag}=1000000000000000 out of range (must be <= 10000000)")
        parse = cli._N if flag == "n" else cli._N_PAIRS
        assert parse("10000000", flag) == 10**7

    @pytest.mark.parametrize("argv, message", [
        (("torsion-check", "--min-dist", "0.05"), "min-dist=0.05 out of range (must be > 0.05)"),
        (("torsion-check", "--s", "0.99"),
         "s=0.99 out of the quadrature's range (must be <= 0.98)"),
    ])
    def test_torsion_check_ranges_name_their_flag(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == message

    def test_seed_is_capped_at_two_to_the_64_less_one(self, capsys, tmp_path):
        # a larger seed would overflow the float product that sets the scan's
        # grid phase; the cap itself runs the scan and the slab
        top = str(2**64 - 1)
        for argv in (("critical-plane", "--domain", "bump:1e-3"),
                     ("slab-measure", "--domain", "ball", "--n", "1000")):
            code, out, err = run(capsys, *argv, "--seed", str(2**64), "--out", str(tmp_path))
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == f"seed={2**64} out of range (must be <= {top})"
            summary = run_json(capsys, *argv, "--seed", top, "--out", str(tmp_path))
            assert summary["seed"] == 2**64 - 1
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": 2**64 - 1}))
        assert run_json(capsys, "constants", "--config", str(cfg_file))["seed"] == 2**64 - 1

    def test_numerical_failure_exits_three(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ProjectionError("projection residual above tolerance")

        monkeypatch.setattr("fracshape.cli.critical_lambda", fail)
        code, _, err = run(capsys, "critical-plane", "--domain", "ball")
        assert code == 3
        payload = json.loads(err)
        assert payload == {"error": "projection residual above tolerance",
                           "command": "critical-plane"}


    def test_internal_fault_exits_four(self, capsys, monkeypatch):
        def fail(p):
            raise ValueError("an internal fault")

        monkeypatch.setattr(cli, "gamma_ns", fail)
        code, out, err = run(capsys, "constants")
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "an internal fault", "command": "constants"}

    @pytest.mark.parametrize("argv, error", [
        (("constants", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
        (("critical-plane", "--domain"), "argument --domain: expected one argument"),
    ], ids=["unknown-flag", "missing-value"])
    def test_rejected_flag_names_its_subcommand(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": error, "command": argv[0]}


    def test_cached_parser_keeps_no_state_between_calls(self, capsys):
        # main builds its parser once per process; each call must read as
        # from a fresh process, also right after a rejected argv
        rejected, bad_value, valid = (("constants", "--bogus", "1"), ("constants", "--s", "1.5"),
                                      ("constants", "--s", "0.5"))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        fresh = {}
        for argv in (rejected, bad_value, valid):
            done = subprocess.run([sys.executable, "-m", "fracshape.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            fresh[argv] = (done.returncode, done.stdout, done.stderr)
        for argv in (rejected, valid, bad_value, rejected, valid):
            assert run(capsys, *argv) == fresh[argv]
        assert cli._build_parser() is cli._build_parser()

    def test_closed_stdout_exits_one_without_payload(self, tmp_path):
        # as under `| head`: a reader that leaves is not bad input
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fracshape.cli", "critical-plane", "--domain", "ball:0.5",
             "--out", str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # gone before the first byte is written
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 1 and err == b""


_CONTRACT_ERRORS = {"ParameterDomainError", "ProjectionError", "CliError"}


def _is_exception_class(node):
    names = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in node.bases]
    return node.name.endswith("Error") or any(
        n.endswith(("Error", "Exception", "Warning")) for n in names)


class TestInputContract:
    """Bad input raises ParameterDomainError or CliError (exit 2), a numerical
    failure ProjectionError (exit 3); nothing else is raised on purpose."""

    TREES = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))}

    def test_only_the_contract_exceptions_are_defined(self):
        defined = sorted(node.name for tree in self.TREES.values() for node in ast.walk(tree)
                         if isinstance(node, ast.ClassDef) and _is_exception_class(node))
        assert defined == sorted(_CONTRACT_ERRORS)

    def test_every_raise_names_a_contract_exception(self):
        for name, tree in self.TREES.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise):
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    assert isinstance(exc, ast.Name) and exc.id in _CONTRACT_ERRORS, \
                        f"{name}:{node.lineno}"

    def test_cli_input_errors_are_the_contract_ones(self):
        assert {e.__name__ for e in cli._INPUT_ERRORS} == {"CliError", "OSError",
                                                           "ParameterDomainError"}


class TestRunConfig:

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"command": "constants", "extra": 1}))
        code, _, err = run(capsys, "constants", "--config", str(cfg_file))
        assert code == 2
        assert "extra" in json.loads(err)["error"]

    def test_config_file_wins_over_flags(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "command": "constants", "params": {"s": "0.75"}, "seed": 3}))
        summary = run_json(capsys, "constants", "--config", str(cfg_file),
                           "--s", "0.25")
        assert summary["params"]["s"] == "0.75"
        assert summary["seed"] == 3

    def test_config_command_mismatch(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"command": "constants"}))
        code, _, err = run(capsys, "critical-plane", "--domain", "ball",
                           "--config", str(cfg_file))
        assert code == 2
        assert "does not match" in json.loads(err)["error"]

    @pytest.mark.parametrize("raw", [
        [],
        {"command": "constants", "params": 5},
        {"seed": [1]},
        {"seed": 1.5},
        {"seed": -1},
        {"seed": 2**64},
    ])
    def test_malformed_config_exits_two(self, capsys, tmp_path, raw):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(raw))
        code, out, err = run(capsys, "constants", "--config", str(cfg_file))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "command"}
        assert payload["command"] == "constants"

    def test_undecodable_config_exits_two(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, "constants", "--config", str(cfg_file))
        assert code == 2
        assert "not valid JSON" in json.loads(err)["error"]


class TestCriticalPlane:

    def test_centered_ball_has_no_offset(self, capsys):
        summary = run_json(capsys, "critical-plane", "--domain", "ball")
        plane = summary["results"]["plane"]
        assert abs(plane["lambda"]) <= 2e-6
        assert plane["case"] != "unresolved"

    # a value that starts with - and is not a plain number is still a value
    @pytest.mark.parametrize("e", ["-1,0", "-0.6,-0.8"])
    def test_negative_direction_is_a_value(self, capsys, e):
        summary = run_json(capsys, "critical-plane", "--domain", "ball", "--e", e)
        assert summary["params"]["e"] == e
        assert abs(summary["results"]["plane"]["lambda"]) <= 2e-6

    # the accepted radii [1e-3, 1e3]: the scan's absolute violation threshold
    # (1e-12) stays above the rounding of level (about R * 1.1e-16) and below
    # the excess of a reflected cap, which scales with R
    @pytest.mark.parametrize("tol", ["1e-6", "1e-12"])
    @pytest.mark.parametrize("e", ["0.6,0.8", "1,0"])
    @pytest.mark.parametrize("radius", ["1e-3", "1", "1e3"])
    def test_ball_planes_stop_at_the_centre_over_the_radius_range(self, capsys, radius, e, tol):
        summary = run_json(capsys, "slab-measure", "--domain", f"ball:{radius}", "--e", e,
                           "--tol", tol)
        plane, slab = summary["results"]["plane"], summary["results"]["slab"]
        assert plane["case"] != "unresolved"
        assert abs(plane["lambda"]) <= plane["tol"] == float(tol)
        assert abs(slab["value"]) <= slab["error"]

    def test_params_echoed_verbatim(self, capsys):
        summary = run_json(capsys, "critical-plane", "--domain", "bump:1e-3",
                           "--tol", "1e-5")
        assert summary["params"]["domain"] == "bump:1e-3"
        assert summary["params"]["tol"] == "1e-5"


class TestTorsionCheckDraw:

    ARGS = ("torsion-check", "--domain", "ellipsoid:0.1", "--min-dist", "0.3")

    def test_selects_the_first_admissible_points_of_the_full_stream(
            self, capsys, monkeypatch, tmp_path):
        dom = ellipsoid(0.1)
        lo, hi = dom.bbox
        full = lo + (hi - lo) * halton_points(65536, 0)
        full = full[dom.contains(full)]
        want = full[boundary_distance(dom, full) >= 0.3][:2000]

        drawn, seen = [], []

        def counting_draw(n, seed):
            drawn.append(n)
            return halton_points(n, seed)

        def record(f, x):
            seen.append(np.array(x))
            return FrlapResult(value=np.ones(len(x)), error=np.zeros(len(x)),
                               converged=np.ones(len(x), dtype=bool))

        monkeypatch.setattr(cli, "halton_points", counting_draw)
        monkeypatch.setattr(cli, "frlap_eval", record)
        code, _, err = run(capsys, *self.ARGS, "--points", "2000", "--out", str(tmp_path))
        assert code == 0, err
        assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
        assert len(drawn) > 2 and max(drawn) < 65536

    def test_table_columns(self, capsys, monkeypatch, tmp_path):
        # README's torsion-check columns, in the order written
        monkeypatch.setattr(cli, "frlap_eval", lambda f, x: FrlapResult(
            value=np.ones(len(x)), error=np.zeros(len(x)), converged=np.ones(len(x), dtype=bool)))
        code, out, err = run(capsys, *self.ARGS, "--points", "2", "--out", str(tmp_path))
        assert code == 0, err
        csv_art = next(p for p in json.loads(out)["artifacts"] if p.endswith(".csv"))
        assert Path(csv_art).read_text().splitlines()[0] == "x1,x2,value,error,converged"

    def test_too_many_points_still_fail_at_the_full_stream(self, capsys, tmp_path):
        code, out, err = run(capsys, *self.ARGS, "--points", "40000", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "could not place 40000 interior points at distance 0.3",
            "command": "torsion-check"}


def _run_python(script):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestImportGuard:

    def test_import_loads_neither_scipy_spatial_nor_scipy_special(self):
        # the chart distance search and the quadrature rules import them lazily
        script = """
import sys
import fracshape
print("scipy.spatial" in sys.modules, "scipy.special" in sys.modules)
"""
        assert _run_python(script) == "False False"

    def test_import_builds_no_parser(self):
        # the parser is built at the first main call, so importing the CLI
        # costs no more than it did before the parser was cached
        script = """
from fracshape import cli
print(cli._build_parser.cache_info().currsize)
"""
        assert _run_python(script) == "0"

    def test_sampling_commands_never_import_scipy_stats(self, tmp_path):
        # scipy.stats costs more at a cold start than all of fracshape
        script = f"""
import contextlib, io, sys
from fracshape.cli import main
runs = [["slab-measure", "--domain", "bump:1e-2", "--n", "1000"],
        ["torsion-check", "--domain", "ellipsoid:0.1", "--points", "5"],
        ["stability-probe", "--eps", "0.02", "--n-pairs", "1000"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--out", {str(tmp_path)!r}]) for argv in runs]
print(codes, "scipy.stats" in sys.modules)
"""
        assert _run_python(script) == "[0, 0, 0] False"

    def test_only_a_chart_boundary_integral_imports_scipy_spatial(self, tmp_path):
        # the KD-tree serves the chart distance search alone; importing it
        # costs about as much memory as all the rest of a command
        script = f"""
import contextlib, io, sys
from fracshape.cli import main
runs = [["critical-plane", "--domain", "bump:1e-3"],
        ["slab-measure", "--domain", "bump:1e-3", "--n", "1000"],
        ["counterexample-scan", "--eps", "1e-3,1e-4,1e-5", "--n", "1000"],
        ["lemma-check", "--eps", "1e-3", "--n", "1000"],
        ["stability-probe", "--eps", "0.02", "--n-pairs", "1000"],
        ["torsion-check", "--domain", "ellipsoid:0.1", "--points", "5"],
        ["boundary-integral", "--domain", "ellipsoid:0.1", "--n", "1000"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--out", {str(tmp_path)!r}]) for argv in runs]
print(codes, "scipy.spatial" in sys.modules)
"""
        assert _run_python(script) == "[0, 0, 0, 0, 0, 0, 0] False"


class TestResultShapes:

    def test_measure_results_carry_exactly_these_keys(self, capsys):
        slab = run_json(capsys, "slab-measure", "--domain", "ball")["results"]
        assert set(slab) == {"plane", "slab"}
        assert set(slab["slab"]) == {"value", "error", "method", "n_samples"}
        integral = run_json(capsys, "boundary-integral", "--domain", "ball:1.05",
                            "--n", "1000")["results"]
        assert set(integral) == {"value", "error", "method", "n_samples"}

    @pytest.mark.parametrize("domain, n, evaluated", [
        ("bump:1e-3", "4000", 3991),  # 13 shells of 4000 // 13 = 307 points
        ("bump:1e-3", "100", 208),  # 13 shells of at least 16 points
        ("ball", "1000", 0),  # nothing sticks out of the unit disk
    ])
    def test_boundary_integral_reports_the_points_it_evaluated(
            self, capsys, domain, n, evaluated):
        integral = run_json(capsys, "boundary-integral", "--domain", domain,
                            "--n", n)["results"]
        assert integral["n_samples"] == evaluated


class TestArtifacts:

    ARGS = ("stability-probe", "--eps", "0.02,0.01", "--n-pairs", "2000")

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        out = str(tmp_path)
        code, stdout1, _ = run(capsys, *self.ARGS, "--out", out)
        assert code == 0
        arts = [Path(p) for p in json.loads(stdout1)["artifacts"]]
        assert len(arts) == 2 and all(p.exists() for p in arts)
        first = {p: p.read_bytes() for p in arts}

        code, stdout2, _ = run(capsys, *self.ARGS, "--out", out)
        assert code == 0
        assert stdout2 == stdout1
        for p, blob in first.items():
            assert p.read_bytes() == blob

    def test_summary_file_mirrors_stdout(self, capsys, tmp_path):
        _, stdout, _ = run(capsys, *self.ARGS, "--out", str(tmp_path))
        summary = json.loads(stdout)
        json_art = next(p for p in summary["artifacts"] if p.endswith(".json"))
        assert json.loads(Path(json_art).read_text()) == summary

    def test_seed_changes_artifact_name(self, capsys, tmp_path):
        _, out1, _ = run(capsys, *self.ARGS, "--out", str(tmp_path), "--seed", "0")
        _, out2, _ = run(capsys, *self.ARGS, "--out", str(tmp_path), "--seed", "1")
        names1 = {Path(p).name for p in json.loads(out1)["artifacts"]}
        names2 = {Path(p).name for p in json.loads(out2)["artifacts"]}
        assert names1.isdisjoint(names2)

    def test_csv_rows_match_grid(self, capsys, tmp_path):
        _, stdout, _ = run(capsys, *self.ARGS, "--out", str(tmp_path))
        csv_art = next(p for p in json.loads(stdout)["artifacts"]
                       if p.endswith(".csv"))
        lines = Path(csv_art).read_text().splitlines()
        assert lines[0].startswith("eps,")
        assert len(lines) == 3  # header + one row per grid value


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_DOMAINS = st.one_of(
    _floats(0.0, 4.0, exclude_min=True).map(lambda r: f"ball:{r!r}"),
    _floats(0.0, 0.25, exclude_min=True, exclude_max=True).map(
        lambda e: f"ellipsoid:{e!r}"),
    st.tuples(_floats(0.0, 0.05, exclude_min=True),
              _floats(1.0, 8.0, exclude_min=True)).map(
        lambda ea: f"bump:{ea[0]!r}:{ea[1]!r}"),
)


class TestBoundaryIntegralInputs:

    @settings(max_examples=20, deadline=None)
    @given(domain=_DOMAINS,
           s=_floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           n=st.integers(100, 400))
    def test_accepted_input_gives_a_finite_estimate_or_exits_two(self, domain, s, n):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["boundary-integral", "--domain", domain, "--s", repr(s),
                         "--n", str(n)])
        assert code in (0, 2), err.getvalue()
        if code == 0:
            res = json.loads(out.getvalue())["results"]
            assert math.isfinite(res["value"])
            assert math.isfinite(res["error"]) and res["error"] >= 0.0


class TestCriticalPlaneInputs:

    @settings(max_examples=10, deadline=None)
    @given(domain=st.one_of(_DOMAINS, _floats(0.0, 0.05, exclude_min=True).map(
               lambda eps: f"bump:{eps!r}")),
           e=st.tuples(_floats(-2.0, 2.0), _floats(-2.0, 2.0)).filter(lambda v: v != (0.0, 0.0)),
           tol=_floats(1e-10, 1e-3))
    def test_accepted_input_gives_a_plane_or_exits_two_or_three(self, domain, e, tol):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["critical-plane", "--domain", domain, "--e", f"{e[0]!r},{e[1]!r}",
                         "--tol", repr(tol)])
        assert code in (0, 2, 3), err.getvalue()
        assert "expected one argument" not in err.getvalue()
        if code == 0:
            plane = json.loads(out.getvalue())["results"]["plane"]
            assert math.isfinite(plane["lambda"]) and plane["lambda"] <= plane["Lambda"]
            assert plane["case"] in ("internal-tangency", "boundary-orthogonality", "unresolved")
            assert math.isfinite(plane["tol"]) and plane["tol"] >= tol


_BUDGET_S = 60.0  # wall time an accepted input may take


def _run_timed(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - t0
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "expected one argument" not in err.getvalue()  # a value read as a flag
    assert elapsed < _BUDGET_S, f"{argv} took {elapsed:.1f}s"
    if code != 0:
        assert out.getvalue() == "" and "error" in json.loads(err.getvalue())
        return code, None
    return code, json.loads(out.getvalue())["results"]


class TestTorsionCheckInputs:

    @settings(max_examples=10, deadline=None)
    @given(domain=st.one_of(st.just("ball"), _floats(0.0, 0.25, exclude_max=True).map(
               lambda e: f"ellipsoid:{e!r}")),
           s=_floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           points=st.integers(1, 300),
           min_dist=_floats(0.0, 0.5, exclude_min=True))
    # orders within 1e-14 of 1, where the quadrature's values are NaN or its
    # two rules agree on garbage
    @example(domain="ball", s=0.99999999999999, points=20, min_dist=0.2)
    @example(domain="ball", s=0.9999999999999999, points=20, min_dist=0.2)
    def test_accepted_input_ends_within_budget_or_exits_two_or_three(
            self, domain, s, points, min_dist):
        with tempfile.TemporaryDirectory() as tmp:
            code, res = _run_timed(["torsion-check", "--domain", domain, "--s", repr(s),
                                    "--points", str(points), "--min-dist", repr(min_dist),
                                    "--out", tmp])
            if code == 0:
                assert res["points"] == points
                (csv_art,) = Path(tmp).glob("*.csv")
                rows = list(csv.DictReader(io.StringIO(csv_art.read_text())))
                assert len(rows) == points
                dev = [abs(float(r["value"]) - 1.0) for r in rows]
                # a NaN deviation is reported as NaN, never as a smaller one
                assert repr(res["max_abs_dev"]) == repr(max(dev, key=lambda v: (v != v, v)))
                for r, d in zip(rows, dev):
                    assert r["converged"] == "False" or d <= 1e-2, r


class TestSlabMeasureInputs:

    @settings(max_examples=10, deadline=None)
    @given(domain=st.one_of(_DOMAINS, _floats(0.0, 0.05, exclude_min=True).map(
               lambda eps: f"bump:{eps!r}")),
           e=st.tuples(_floats(-2.0, 2.0), _floats(-2.0, 2.0)).filter(lambda v: v != (0.0, 0.0)),
           gamma=_floats(0.0, 0.25, exclude_min=True),
           tol=_floats(1e-10, 1e-3),
           n=st.integers(100, 2000))
    # at a tiny gamma the closed-form disk part's two ends round either way
    # round, and the error bar must still be >= 0
    @example(domain="bump:0.03125:2.0", e=(0.0, 1.0), gamma=5.004602393795784e-07,
             tol=1.192092896e-07, n=100)
    # a thin band where the sampled correction outweighs the disk part
    @example(domain="bump:0.0078125:1.5", e=(1.25, 0.0625), gamma=0.001953125,
             tol=0.0005326781236714771, n=807)
    def test_accepted_input_ends_within_budget_or_exits_two_or_three(
            self, domain, e, gamma, tol, n):
        code, res = _run_timed(["slab-measure", "--domain", domain, "--e", f"{e[0]!r},{e[1]!r}",
                                "--gamma", repr(gamma), "--tol", repr(tol), "--n", str(n)])
        if code == 0:
            assert math.isfinite(res["slab"]["value"]) and res["slab"]["value"] >= 0.0
            assert math.isfinite(res["slab"]["error"]) and res["slab"]["error"] >= 0.0
            assert math.isfinite(res["plane"]["lambda"])
            assert res["plane"]["lambda"] <= res["plane"]["Lambda"]

    def test_negative_direction_is_a_value(self, capsys):
        summary = run_json(capsys, "slab-measure", "--domain", "bump:1e-3", "--e", "-1,0",
                           "--n", "1000")
        assert summary["params"]["e"] == "-1,0"


def _float_list(lo, hi, max_size=3, **kw):
    return st.lists(_floats(lo, hi, **kw), min_size=1, max_size=max_size).map(
        lambda v: ",".join(repr(x) for x in v))


def _assert_fit_rests_on_three_distinct_x(fit):
    if fit is not None:
        assert len({x for x, _ in fit["points"]}) >= 3, fit["points"]
        assert math.isfinite(fit["slope"]) and 0.0 <= fit["r2"] <= 1.0


_ORDERS = _floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestConstantsInputs:

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 500), s=_ORDERS)
    def test_accepted_input_ends_within_budget_or_exits_two_or_three(self, n, s):
        code, res = _run_timed(["constants", "--n", str(n), "--s", repr(s)])
        if code == 0:
            assert math.isfinite(res["gamma_ns"]) and res["gamma_ns"] > 0.0
            assert math.isfinite(res["c_ns"]) and res["c_ns"] > 0.0


_STRETCHES = _floats(0.0, 0.25, exclude_min=True, exclude_max=True)


class TestSeminormRatioInputs:

    @settings(max_examples=10, deadline=None)
    @given(s=_ORDERS, eps=_STRETCHES, n_pairs=st.integers(1000, 5000))
    def test_accepted_input_ends_within_budget_or_exits_two_or_three(self, s, eps, n_pairs):
        code, res = _run_timed(["seminorm-ratio", "--s", repr(s), "--eps", repr(eps),
                                "--n-pairs", str(n_pairs)])
        if code == 0:
            assert math.isfinite(res["seminorm"]) and res["seminorm"] >= 0.0
            assert math.isfinite(res["ratio"]) and math.isfinite(res["rel_gap"])
            assert isinstance(res["converged"], bool)

    def test_subnormal_stretch_is_unconverged(self, capsys, tmp_path):
        summary = run_json(capsys, "seminorm-ratio", "--eps", "5e-324", "--n-pairs", "1000",
                           "--out", str(tmp_path))
        assert summary["results"]["seminorm"] == 0.0
        assert summary["results"]["converged"] is False


class TestStabilityProbeInputs:

    # repeated and rounding-level stretches mixed in, so fits can degenerate
    GRIDS = st.lists(st.one_of(_STRETCHES, st.sampled_from((0.01, 1e-13, 1e-300))),
                     min_size=1, max_size=4).map(lambda v: ",".join(repr(x) for x in v))

    @settings(max_examples=10, deadline=None)
    @given(s=_ORDERS, eps=GRIDS, n_pairs=st.integers(1000, 5000))
    def test_accepted_input_ends_within_budget_or_exits_two_or_three(self, s, eps, n_pairs):
        with tempfile.TemporaryDirectory() as tmp:
            code, res = _run_timed(["stability-probe", "--s", repr(s), "--eps", eps,
                                    "--n-pairs", str(n_pairs), "--out", tmp])
            if code == 0:
                (csv_art,) = Path(tmp).glob("*.csv")
                assert len(csv_art.read_text().splitlines()) == len(eps.split(",")) + 1
                _assert_fit_rests_on_three_distinct_x(res["fit"])


class TestDegenerateFits:
    """Grids that cannot carry an exponent report no fit."""

    def test_repeated_stretch_gives_no_probe_fit(self, capsys, tmp_path):
        summary = run_json(capsys, "stability-probe", "--eps", "0.01,0.01,0.01",
                           "--out", str(tmp_path))
        assert summary["results"]["fit"] is None

    @pytest.mark.parametrize("eps", ["1e-3,1e-3,1e-3",
                                     "1e-3,1.0000000000000002e-3,1.0000000000000004e-3"])
    def test_repeated_height_gives_no_scan_fit(self, capsys, tmp_path, eps):
        summary = run_json(capsys, "counterexample-scan", "--eps", eps,
                           "--n", "1000", "--out", str(tmp_path))
        assert summary["results"] == {"lambda_fit": None, "slab_fit": None}

    def test_rounding_level_shape_is_flagged_and_not_fitted(self, capsys, tmp_path):
        summary = run_json(capsys, "stability-probe", "--eps", "1e-300,1e-200,1e-100",
                           "--out", str(tmp_path))
        assert summary["results"]["fit"] is None
        csv_art = next(p for p in summary["artifacts"] if p.endswith(".csv"))
        flags = [line.rsplit(",", 1)[1] for line in Path(csv_art).read_text().splitlines()[1:]]
        assert flags == ["shape-below-resolution"] * 3

    def test_subnormal_stretch_rows_are_flagged_and_not_fitted(self, capsys, tmp_path):
        summary = run_json(capsys, "stability-probe", "--eps", "5e-324,1e-320,1e-310",
                           "--n-pairs", "1000", "--out", str(tmp_path))
        assert summary["results"]["fit"] is None
        csv_art = next(p for p in summary["artifacts"] if p.endswith(".csv"))
        flags = [line.rsplit(",", 1)[1] for line in Path(csv_art).read_text().splitlines()[1:]]
        assert flags == ["seminorm-unconverged+shape-below-resolution"] * 3

    def test_scan_accepts_the_closed_gamma_bound(self, capsys, tmp_path):
        summary = run_json(capsys, "counterexample-scan", "--eps", "1e-3,3e-4,1e-4",
                           "--gamma", "0.25", "--n", "1000", "--out", str(tmp_path))
        assert summary["results"]["slab_fit"] is not None


_BUMP_HEIGHTS = _float_list(0.0, 0.05, exclude_min=True)
_ALPHAS = _floats(1.0, 8.0, exclude_min=True)


class TestCounterexampleScanInputs:

    @settings(max_examples=5, deadline=None)
    @given(alpha=_ALPHAS, eps=_BUMP_HEIGHTS,
           gamma=_floats(0.0, 0.25, exclude_min=True, exclude_max=True),
           tol=_floats(1e-10, 1e-3), n=st.integers(100, 2000))
    def test_accepted_input_ends_within_budget_or_exits_two_or_three(
            self, alpha, eps, gamma, tol, n):
        with tempfile.TemporaryDirectory() as tmp:
            code, res = _run_timed(["counterexample-scan", "--alpha", repr(alpha),
                                    "--eps", eps, "--gamma", repr(gamma), "--tol", repr(tol),
                                    "--n", str(n), "--out", tmp])
            if code == 0:
                (csv_art,) = Path(tmp).glob("*.csv")
                assert len(csv_art.read_text().splitlines()) == len(eps.split(",")) + 1
                for fit in (res["lambda_fit"], res["slab_fit"]):
                    _assert_fit_rests_on_three_distinct_x(fit)


class TestLemmaCheckInputs:

    @settings(max_examples=5, deadline=None)
    @given(alpha=_ALPHAS, eps=_BUMP_HEIGHTS,
           gamma=_float_list(0.0, 0.25, max_size=2, exclude_min=True),
           tol=_floats(1e-10, 1e-3), n=st.integers(100, 2000))
    def test_accepted_input_ends_within_budget_or_exits_two_or_three(
            self, alpha, eps, gamma, tol, n):
        with tempfile.TemporaryDirectory() as tmp:
            code, res = _run_timed(["lemma-check", "--alpha", repr(alpha), "--eps", eps,
                                    "--gamma", gamma, "--tol", repr(tol), "--n", str(n),
                                    "--out", tmp])
            if code == 0:
                assert res["rows"] == len(eps.split(",")) * len(gamma.split(","))
                assert 0 <= res["flagged"] <= res["rows"]
