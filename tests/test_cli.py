"""In-process tests for the command-line interface: output formats,
exit codes, config handling, and sweep reproducibility."""

import csv
import ctypes
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lenstri import cli, numerics, verify
from lenstri.params import NomeParameters, NonConvergenceError


def unconverged(self, values, tol):
    """Stand-in for ``numerics.Trapezoid.take``: every integral runs out
    of nodes at once, unconverged."""
    for i in self.active:
        self.results[i] = numerics.QuadratureResult(0j, 1.0, 16, False)
    self.active = []


SRC = Path(cli.__file__).resolve().parents[1]


def fresh_python(code: str) -> bytes:
    """stdout of code run in a new interpreter that imports lenstri from
    the sources under test."""
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, check=True).stdout


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_mod_bracket(self, capsys):
        rc, out, _ = run(capsys, ["eval", "mod_bracket", "--m", "-1", "--r", "4"])
        assert rc == 0
        assert json.loads(out)["value"] == 3

    def test_epsilon_factor(self, capsys):
        rc, out, _ = run(capsys, ["eval", "epsilon_factor", "--m", "0",
                                  "--r", "5"])
        assert rc == 0
        assert json.loads(out)["value"] == 0.5

    def test_gamma_value_with_tail_bound(self, capsys):
        rc, out, _ = run(capsys, ["eval", "lens_elliptic_gamma", "--z", "0",
                                  "--m", "0", "--r", "1"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["value"][0] == pytest.approx(1.0, abs=1e-10)
        assert rec["value"][1] == pytest.approx(0.0, abs=1e-10)
        assert 0 <= rec["tail_bound"] < 1e-10

    def test_weight_with_spin_tokens(self, capsys):
        rc, out, _ = run(capsys, ["eval", "weight_gamma", "--alpha", "0.4",
                                  "--spins", "0.5:0", "1.0:1"])
        assert rc == 0
        assert json.loads(out)["value"] > 0

    def test_unknown_function(self, capsys):
        rc, _, err = run(capsys, ["eval", "no_such_thing"])
        assert rc == 2
        assert "unknown evaluation target" in err

    def test_nonconvergent_nome_exit_code(self, capsys):
        # |p| so close to 1 that the product hits the term cap
        rc, _, err = run(capsys, ["eval", "lens_elliptic_gamma", "--sigma",
                                  "0.05+0.0001j", "--z", "0.3", "--m", "0",
                                  "--r", "1"])
        assert rc == 3
        assert "non-convergence" in err

    @pytest.mark.parametrize("argv", [
        ["theta4", "--sigma", "0.48+0.082j", "--z", "3.24+354.3j"],
        ["q_function", "--sigma", "0.48+0.082j", "--tau=-0.35+3.55e-7j",
         "--r", "4", "--z", "3.24+354.3j", "--m", "-2"]])
    def test_product_argument_near_the_largest_double(self, capsys, argv):
        # the largest product argument lies within a factor 10 of the
        # largest double, so its term count must not divide eps by it
        rc, out, err = run(capsys, ["eval", *argv])
        assert rc == 3
        assert out == ""
        assert "product overflows" in err

    @pytest.mark.parametrize("argv", [
        ["lens_theta", "--z", "168j", "--m", "0", "--r", "10",
         "--sigma", "0.05+0.5j", "--tau=-0.05+0.625j"],
        ["lens_gamma_appendix", "--z", "50j", "--m", "0", "--r", "2",
         "--sigma", "0.1+0.5j", "--tau=-0.1+2j"],
        ["lens_elliptic_gamma", "--z=-20j", "--m", "0", "--r", "1"]])
    def test_value_overflowing_double_precision(self, capsys, argv):
        # every product is finite, but an exponential prefactor or the
        # product of two elliptic gamma factors takes the value past the
        # largest double: no inf may be printed
        rc, out, err = run(capsys, ["eval", *argv])
        assert rc == 3
        assert out == ""
        assert "not finite" in err


class TestVerify:
    def test_theta_difference_passes(self, capsys):
        rc, out, _ = run(capsys, ["verify", "thtfunct", "--r", "2",
                                  "--seed", "3"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["passed"] is True
        assert rec["identity_name"] == "thtfunct"
        assert rec["rel_residual"] <= rec["tolerance"]
        assert rec["checks"] == {"residual": True, "period_shift_lhs": True,
                                 "period_shift_rhs": True}

    def test_default_tolerance_from_table(self, capsys):
        rc, out, _ = run(capsys, ["verify", "thtfunct", "--r", "2",
                                  "--seed", "3"])
        assert json.loads(out)["tolerance"] == cli.IDENTITIES["thtfunct"].tol

    @pytest.mark.parametrize("tol", ["0", "-1e-6", "inf", "nan"])
    def test_nonpositive_or_nonfinite_tolerance_exit_two(self, capsys, tol):
        rc, out, err = run(capsys, ["verify", "thtfunct", "--r", "2",
                                    "--seed", "3", f"--tol={tol}"])
        assert rc == 2
        assert out == ""
        assert "tol must be a positive finite number" in err

    @pytest.mark.parametrize("name,tol", [("limit_r", 1e-30),
                                          ("limit_hbar", 5.0),
                                          ("brackets", 0.5)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tolerance_of_an_identity_without_one_exit_two(
            self, capsys, tmp_path, name, tol, source):
        # their checks set their own bounds; a --tol would be reported
        # back as if it had been applied
        if source == "flag":
            argv = ["verify", name, "--tol", repr(tol)]
        else:
            cfgfile = tmp_path / "c.json"
            cfgfile.write_text(json.dumps({"tol": tol}))
            argv = ["verify", name, "--config", str(cfgfile)]
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert f"{name} takes no tolerance" in err

    def test_runtime_on_stderr_only(self, capsys):
        rc, out, err = run(capsys, ["verify", "thtfunct", "--r", "2",
                                    "--seed", "3"])
        assert rc == 0
        assert "runtime" not in json.loads(out)["numerics_meta"]
        assert "verify finished in" in err

    def test_unconverged_quadrature_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(numerics.Trapezoid, "take", unconverged)
        rc, out, err = run(capsys, ["verify", "str", "--r", "1",
                                    "--seed", "2"])
        assert rc == 3
        assert out == ""
        assert "non-convergence" in err

    def test_failing_tolerance_exit_one(self, capsys):
        rc, out, _ = run(capsys, ["verify", "thtfunct", "--r", "2",
                                  "--seed", "3", "--tol", "1e-16"])
        assert rc == 1
        assert json.loads(out)["passed"] is False

    def test_explicit_case_overrides_sampler(self, capsys):
        rc, out, _ = run(capsys, ["verify", "brackets"])
        assert rc == 0
        assert json.loads(out)["numerics_meta"]["failures"] == []

    def test_invalid_alphas_exit_two(self, capsys):
        rc, _, err = run(capsys, ["verify", "str", "--r", "1",
                                  "--spins", "0.6:0", "1.7:0", "2.9:0",
                                  "--alphas", "0.5", "0.5", "0.6"])
        assert rc == 2
        assert "invalid configuration" in err

    @pytest.mark.parametrize("identity", ["str", "rinfstr"])
    def test_complex_eta_exit_two(self, capsys, identity):
        # sigma = tau: eta = pi (0.5 - 0.05i) is not real
        rc, out, err = run(capsys, ["verify", identity, "--r", "2",
                                    "--seed", "1", "--sigma", "0.05+0.5j",
                                    "--tau", "0.05+0.5j"])
        assert rc == 2
        assert out == ""
        assert "need a real eta" in err

    def test_rinfstr_spin_outside_domain_exit_two(self, capsys):
        rc, out, err = run(capsys, ["verify", "rinfstr",
                                    "--spins", "5.0:0", "0.3:1", "1.0:-1",
                                    "--alphas", "0.5", "0.5",
                                    "0.5707963267948966"])
        assert rc == 2
        assert out == ""
        assert "q-limit spin needs 0 <= x < pi" in err

    @pytest.mark.parametrize("im,u", [
        ([0.2] * 4, [0] * 5),                    # four t
        ([0.7] * 5, [0] * 5),                    # |Im A| >= Im(2i eta)
        ([0.4] * 5, [1, 0, -1, 0, 0]),           # the same after the shift
        ([1e-3] + [0.2] * 4, [0] * 5),           # pinched contour
        ([0.306] * 5, [0] * 5),                  # pinched after the shift
    ])
    def test_rejected_iconst_case_exit_two(self, tmp_path, capsys, im, u):
        cfgfile = tmp_path / "iconst.json"
        cfgfile.write_text(json.dumps({
            "r": 2, "t": [[re, b] for re, b in zip((-0.2, 0.1, 0.05, -0.1,
                                                    0.15), im)],
            "u": u}))
        rc, out, err = run(capsys, ["verify", "iconst", "--config",
                                    str(cfgfile)])
        assert rc == 2
        assert out == ""
        assert "invalid configuration" in err

    def test_unknown_identity_exit_two(self, capsys):
        rc, _, err = run(capsys, ["verify", "not_an_identity"])
        assert rc == 2

    def test_csv_output(self, capsys):
        rc, out, _ = run(capsys, ["verify", "thtfunct", "--r", "1",
                                  "--seed", "5", "--format", "csv"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert set(rows[0]) == set(cli.CSV_COLUMNS)
        assert rows[0]["passed"] == "True"
        assert float(rows[0]["rel_residual"]) <= float(rows[0]["tolerance"])


class TestVerifyOnlyIdentities:
    @pytest.mark.parametrize("identity,name", [("bridge", "gamma_phi_bridge"),
                                               ("limit_r", "limit_r_to_inf")])
    def test_z_flag(self, capsys, identity, name):
        rc, out, err = run(capsys, ["verify", identity, "--z", "0.3"])
        assert rc == 0, err
        rec = json.loads(out)
        assert rec["identity_name"] == name
        assert rec["parameter_record"]["z"] == [0.3, 0.0]

    @pytest.mark.parametrize("identity", ["bridge", "limit_r"])
    def test_numeric_z_in_config_matches_flag(self, tmp_path, capsys,
                                              identity):
        cfgfile = tmp_path / "case.json"
        cfgfile.write_text(json.dumps({"z": 0.3, "m": 2, "r": 3}))
        rc, from_config, _ = run(capsys, ["verify", identity, "--config",
                                          str(cfgfile)])
        assert rc == 0
        _, from_flags, _ = run(capsys, ["verify", identity, "--z", "0.3",
                                        "--m", "2", "--r", "3"])
        strip = lambda text: {k: v for k, v in json.loads(text).items()
                              if k != "numerics_meta"}
        assert strip(from_config) == strip(from_flags)

    def test_limit_hbar_flags(self, capsys):
        rc, out, _ = run(capsys, ["verify", "limit_hbar", "--alpha", "0.3",
                                  "--m", "1"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["parameter_record"]["alpha"] == 0.3
        assert rec["parameter_record"]["m"] == 1
        assert rec["checks"] == {"monotone_decrease": True}

    def test_brackets_r_max_from_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "case.json"
        cfgfile.write_text(json.dumps({"r_max": 5}))
        rc, out, _ = run(capsys, ["verify", "brackets", "--config",
                                  str(cfgfile)])
        assert rc == 0
        rec = json.loads(out)
        assert rec["parameter_record"] == {"r_max": 5}
        assert rec["numerics_meta"]["cases_checked"] == sum(
            6 * r + 1 for r in range(1, 6))

    def test_numeric_z_for_theta_difference(self, tmp_path, capsys):
        cfgfile = tmp_path / "case.json"
        cfgfile.write_text(json.dumps({
            "r": 2, "z": 0.5,
            "t": [[-0.2, 0.4], [0.1, 0.3], [0.0, 0.2], [0.05, 0.25],
                  [0.05, 0.35]],
            "u": [1, -1, 0, 0, 0]}))
        rc, out, _ = run(capsys, ["verify", "thtfunct", "--config",
                                  str(cfgfile)])
        assert rc == 0
        assert json.loads(out)["parameter_record"]["z"] == [0.5, 0.0]

    @pytest.mark.parametrize("identity",
                             ["brackets", "bridge", "limit_r", "limit_hbar"])
    def test_csv_numbers_match_json(self, capsys, identity):
        # a numpy scalar in a report is written as a plain number
        _, out, _ = run(capsys, ["verify", identity])
        _, text, _ = run(capsys, ["verify", identity, "--format", "csv"])
        rec = json.loads(out)
        row = next(csv.DictReader(io.StringIO(text)))
        assert [float(row[k]) for k in (
            "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_residual",
            "rel_residual", "tolerance")] == [
            *rec["lhs"], *rec["rhs"], rec["abs_residual"],
            rec["rel_residual"], rec["tolerance"]]

    @pytest.mark.parametrize("z", ["abc", {"re": 1}, [0.3, 0.1], True])
    def test_unparseable_z_exit_two(self, tmp_path, capsys, z):
        cfgfile = tmp_path / "case.json"
        cfgfile.write_text(json.dumps({"z": z}))
        rc, out, err = run(capsys, ["verify", "bridge", "--config",
                                    str(cfgfile)])
        assert rc == 2
        assert out == ""
        assert "cannot parse complex number" in err

    def test_unparseable_z_flag_exit_two(self, capsys):
        rc, _, err = run(capsys, ["verify", "limit_r", "--z", "0.3+"])
        assert rc == 2
        assert "cannot parse complex number" in err


class TestJson:
    def test_numpy_scalars_serialize_like_python_ones(self):
        # batched evaluation hands numpy scalars into checks and meta
        def report(b, i, f, c):
            return verify.make_report(
                "x", {"t": [c]}, c, c + f, 1e-6,
                meta={"nodes": i, "error": f, "value": c, "levels": [i, i]},
                checks={"shift_invariance": b})
        numpy_rep = report(np.bool_(True), np.int64(3), np.float64(0.1),
                           np.complex128(1 + 2j))
        python_rep = report(True, 3, 0.1, 1 + 2j)
        assert (cli.to_json(cli.report_to_dict(numpy_rep))
                == cli.to_json(cli.report_to_dict(python_rep)))


class TestConfig:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        cfgfile = tmp_path / "case.json"
        cfgfile.write_text(json.dumps({"m": -1, "r": 4}))
        rc, out, _ = run(capsys, ["eval", "mod_bracket", "--config",
                                  str(cfgfile)])
        assert rc == 0
        assert json.loads(out)["value"] == 3

    def test_flags_override_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "case.json"
        cfgfile.write_text(json.dumps({"m": -1, "r": 4}))
        rc, out, _ = run(capsys, ["eval", "mod_bracket", "--config",
                                  str(cfgfile), "--m", "1"])
        assert rc == 0
        assert json.loads(out)["value"] == 1

    @pytest.mark.parametrize("argv,cfg", [
        (["verify", "brackets"], {"r_max": "abc"}),
        (["eval", "mod_bracket"], {"m": "x"}),
        (["eval", "single_spin_elliptic"], {"spins": [["a", 0]]}),
        (["eval", "single_spin_elliptic"], {"spins": ["0.5:b"]}),
        (["verify", "thtfunct"], {"r": "two"}),
        (["verify", "thtfunct"], {"tol": "small"}),
        (["sweep", "thtfunct"], {"samples": [4]}),
        (["poles"], {"t": ["0.1+0.2j"] * 5, "u": [0, 0, 0, 0, "u"]}),
        (["verify", "thtfunct"], {"tau": 0}),
        (["verify", "thtfunct", "--tau", ""], {}),
        (["poles"], {"t": 5, "u": [0] * 5}),
        (["poles"], {"t": [["a", 0.3]] * 5, "u": [0] * 5}),
        (["poles"], {"t": [[0.1, 0.3, 1]] * 5, "u": [0] * 5}),
        (["eval", "single_spin_elliptic"], {"spins": 5}),
        (["eval", "single_spin_elliptic"], {"spins": [5]}),
        (["verify", "str"], {"spins": [[0.6, 0], [1.7, 0], [2.9, 0]],
                             "alphas": 0.5}),
    ])
    def test_non_numeric_value_exit_two(self, tmp_path, capsys, argv, cfg):
        cfgfile = tmp_path / "case.json"
        cfgfile.write_text(json.dumps(cfg))
        rc, out, err = run(capsys, argv + ["--config", str(cfgfile)])
        assert rc == 2
        assert out == ""
        assert "invalid configuration" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "str", "--seed", "-3"],
        ["sweep", "thtfunct", "--seed", "-1", "--samples", "1"],
    ])
    def test_negative_seed_exit_two(self, capsys, argv):
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert "seed must be >= 0" in err

    def test_missing_config_exit_two(self, capsys):
        rc, _, err = run(capsys, ["eval", "mod_bracket", "--config",
                                  "/nonexistent.json"])
        assert rc == 2

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        rc, out, _ = run(capsys, ["eval", "epsilon_factor", "--m", "1",
                                  "--r", "4", "--out", str(target)])
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] == 1


class TestSweep:
    def _sweep(self, capsys, tmp_path, name, extra=()):
        target = tmp_path / name
        rc, _, _ = run(capsys, ["sweep", "thtfunct", "--r", "2", "--seed", "7",
                                "--samples", "6", "--out", str(target),
                                *extra])
        return rc, target.read_bytes()

    def test_all_samples_pass(self, capsys, tmp_path):
        rc, data = self._sweep(capsys, tmp_path, "a.jsonl")
        assert rc == 0
        lines = data.decode().strip().split("\n")
        summary = json.loads(lines[-1])
        assert summary["passes"] == 6 and summary["failures"] == 0

    def test_reproducible_across_runs(self, capsys, tmp_path):
        _, d1 = self._sweep(capsys, tmp_path, "a.jsonl")
        _, d2 = self._sweep(capsys, tmp_path, "b.jsonl")
        assert d1 == d2

    def test_rows_carry_checks(self, capsys, tmp_path):
        _, data = self._sweep(capsys, tmp_path, "a.jsonl")
        rows = [json.loads(line) for line in data.decode().splitlines()]
        assert all(row["checks"]["period_shift_lhs"] for row in rows[:-1])

    def test_zero_tolerance_exit_two(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["sweep", "thtfunct", "--r", "2",
                                  "--samples", "2", "--tol", "0",
                                  "--out", str(tmp_path / "a.jsonl")])
        assert rc == 2
        assert "tol must be a positive finite number" in err
        assert not (tmp_path / "a.jsonl").exists()

    @pytest.mark.parametrize("identity", ["str", "rinfstr"])
    def test_complex_eta_exit_two(self, capsys, tmp_path, identity):
        # no rows at all, not failed ones (residuals 0.26 and 1.6 from
        # the real part of eta alone)
        rc, out, err = run(capsys, ["sweep", identity, "--r", "2",
                                    "--seed", "1", "--samples", "3",
                                    "--sigma", "0.05+0.5j",
                                    "--tau", "0.05+0.5j",
                                    "--out", str(tmp_path / "a.jsonl")])
        assert rc == 2
        assert "need a real eta" in err
        assert not (tmp_path / "a.jsonl").exists()

    def test_iconst_at_small_im_tau(self, capsys, tmp_path):
        # Im tau <= (2/3) Im sigma: the sampler's usual span would put
        # every shifted draw past Im(2i eta), and abort the sweep
        target = tmp_path / "a.jsonl"
        rc, _, err = run(capsys, ["sweep", "iconst", "--r", "2", "--seed",
                                  "1", "--samples", "5", "--sigma",
                                  "0.05+0.9j", "--tau=-0.05+0.3j",
                                  "--out", str(target)])
        assert rc == 0, err
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert {row["status"] for row in rows[:-1]} <= {"ok",
                                                        "contour-violation"}
        assert rows[-1]["passes"] >= 1 and rows[-1]["failures"] == 0

    def test_iconst_draws_clear_the_contour_margin(self, capsys, tmp_path):
        # 0.08 of the span is under the contour margin here: every Im t_i
        # is lifted above the margin, so no draw is a contour violation
        target = tmp_path / "a.jsonl"
        rc, _, err = run(capsys, ["sweep", "iconst", "--r", "2", "--seed",
                                  "1", "--samples", "5", "--sigma",
                                  "0.05+0.9j", "--tau=-0.05+0.3j",
                                  "--out", str(target)])
        assert rc == 0, err
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert [row["status"] for row in rows[:-1]] == ["ok"] * 5
        assert rows[-1]["passes"] == 5
        for im_sigma, im_tau in ((0.9, 0.3), (0.9, 0.4), (0.9, 0.6)):
            pr = NomeParameters(complex(0.05, im_sigma),
                                complex(-0.05, im_tau), 2)
            limit = verify.CONTOUR_MARGIN_FRACTION * abs(pr.eta)
            for seed in range(20):
                t = cli.sample_iconst_case(np.random.default_rng(seed),
                                           pr)["t"]
                assert min(ti.imag for ti in t) > limit

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_iconst_default_draws_unlifted(self, r):
        # at the default nomes 0.08 of the span clears the margin, and a
        # draw is the unlifted one bit for bit
        pr = NomeParameters(0.05 + 0.5j, -0.05 + 0.5j, r)
        span = 0.4 * (2j * pr.eta).imag
        for seed in range(6):
            rng = np.random.default_rng(seed)
            im = span * (0.4 / 5 + 0.6 * rng.dirichlet([2.0] * 5))
            re = rng.uniform(-0.8, 0.8, 5)
            re -= re.mean()
            u = tuple(int(v) for v in rng.integers(-2, 3, 5))
            case = cli.sample_iconst_case(np.random.default_rng(seed), pr)
            assert case == {"t": tuple(complex(a, b) for a, b in zip(re, im)),
                            "u": u}

    @pytest.mark.parametrize("im_sigma,im_tau", [
        (0.5, 0.5), (0.9, 0.7), (0.6, 0.45), (0.9, 0.6), (0.9, 0.3),
        (1.5, 0.1)])
    def test_iconst_span(self, im_sigma, im_tau):
        # Im A is 0.4 Im(2i eta) wherever the shifted t then keep the
        # contour margin, and below the shift limit everywhere
        pr = NomeParameters(complex(0.05, im_sigma), complex(-0.05, im_tau),
                            2)
        width = (2j * pr.eta).imag
        room = width - math.pi * im_sigma
        for seed in range(4):
            t = cli.sample_iconst_case(np.random.default_rng(seed), pr)["t"]
            im_a = sum(t).imag
            assert im_a < room
            if 0.4 * width < room - verify.CONTOUR_MARGIN_FRACTION * pr.eta.real:
                assert im_a == pytest.approx(0.4 * width, rel=1e-14)

    # the nomes as part of the tested domain: at any sigma with Im sigma
    # >= 0.1 and tau = -conj sigma, a sampled instance ends in a passing
    # report or a status row (a lenstri error such as an underflowing
    # value); a failing report or any other exception fails
    @given(st.sampled_from(["str", "rinfstr", "master", "iconst",
                            "thtfunct", "inversion", "cov"]),
           st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.1, 3.2)),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_nomes_pass_or_raise(self, identity, sigma, r, seed):
        params = NomeParameters(sigma, -sigma.conjugate(), r)
        ident = cli.IDENTITIES[identity]
        rep, _ = cli._sweep_one(ident, params, ident.tol, seed, 0)
        assert rep is None or rep.passed, rep.checks

    # off the conjugate pair: tau = -Re sigma + ib with b != Im sigma keeps
    # eta real, as the star-triangle relations need, and runs the full
    # edge rows of both lens gamma factors (or of Q's numerators and
    # denominators); three samples verified together, as a sweep does
    @given(st.sampled_from(["str", "rinfstr", "master", "iconst", "thtfunct",
                            "inversion"]),
           st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.1, 3.2)),
           st.floats(0.1, 3.2), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_nomes_off_the_pair(self, identity, sigma, b, r, seed):
        assume(b != sigma.imag)
        params = NomeParameters(sigma, complex(-sigma.real, b), r)
        ident = cli.IDENTITIES[identity]
        cases = [cli._sample(ident, params, seed, i) for i in range(3)]
        for rep, _ in cli._sweep_batch(ident, params, ident.tol, cases):
            assert rep is None or rep.passed, rep.checks

    def test_unconverged_quadrature_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(numerics.Trapezoid, "take", unconverged)
        target = tmp_path / "a.jsonl"
        rc, _, _ = run(capsys, ["sweep", "str", "--r", "1", "--seed", "2",
                                "--samples", "2", "--out", str(target)])
        assert rc == 0
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert [row["status"] for row in rows[:-1]] == ["non-converged"] * 2
        assert rows[-1]["skipped"] == 2 and rows[-1]["passes"] == 0

    def test_capped_strmsg_sum_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "MAX_SUM_TERMS", 20)
        target = tmp_path / "a.jsonl"
        rc, _, _ = run(capsys, ["sweep", "strmsg", "--seed", "5",
                                "--samples", "1", "--out", str(target)])
        assert rc == 0
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows[0]["status"] == "non-converged"
        rc, out, err = run(capsys, ["verify", "strmsg", "--seed", "5"])
        assert rc == 3
        assert out == ""
        assert "20 terms" in err

    def test_capped_rinfstr_sum_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "MAX_SUM_TERMS", 5)
        target = tmp_path / "a.jsonl"
        rc, _, _ = run(capsys, ["sweep", "rinfstr", "--seed", "5",
                                "--samples", "1", "--out", str(target)])
        assert rc == 0
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows[0]["status"] == "non-converged"
        rc, out, err = run(capsys, ["verify", "rinfstr", "--seed", "5"])
        assert rc == 3
        assert out == ""
        assert "more than 5" in err

    def test_csv_format(self, capsys, tmp_path):
        rc, data = self._sweep(capsys, tmp_path, "a.csv",
                               extra=("--format", "csv"))
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        assert len(rows) == 6
        assert [r["sample_index"] for r in rows] == [str(i) for i in range(6)]

    def test_timing_kept_out_of_rows(self, capsys, tmp_path):
        target = tmp_path / "a.jsonl"
        rc, _, err = run(capsys, ["sweep", "thtfunct", "--r", "1", "--seed",
                                  "1", "--samples", "2", "--out", str(target)])
        assert rc == 0
        assert "sweep finished" in err
        assert b"runtime" not in target.read_bytes()

    def test_unsupported_identity(self, capsys):
        rc, _, err = run(capsys, ["sweep", "limit_r"])
        assert rc == 2
        assert "does not support sweeps" in err


class TestRowLayout:
    ARGV = ["thtfunct", "--r", "2", "--seed", "7"]

    @staticmethod
    def mixed_verdicts(monkeypatch):
        """Make successive thtfunct cases pass, fail and not converge; the
        sweep verifies them one by one, through the stand-in."""
        calls = []

        def verdict(c, pr, tol):
            calls.append(None)
            if len(calls) % 3 == 0:
                raise NonConvergenceError("stand-in")
            rep = verify.verify_theta_differences(
                [(c["z"], c["y"], c["t"], c["u"])], pr, tol)[0]
            if len(calls) % 3 == 2:
                rep = dataclasses.replace(
                    rep, checks={**rep.checks, "stand_in": False})
            return rep
        monkeypatch.setitem(cli.IDENTITIES, "thtfunct", dataclasses.replace(
            cli.IDENTITIES["thtfunct"], run=verdict, batch=None))

    def test_seed_ends_each_report_row(self, capsys, monkeypatch):
        _, out, _ = run(capsys, ["verify", *self.ARGV])
        rec = json.loads(out)
        assert list(rec)[-1] == "seed" and rec["seed"] == 7
        _, text, _ = run(capsys, ["verify", *self.ARGV, "--format", "csv"])
        assert next(csv.DictReader(io.StringIO(text)))["seed"] == "7"

        self.mixed_verdicts(monkeypatch)
        sweep = ["sweep", *self.ARGV, "--samples", "6"]
        rc, out, _ = run(capsys, sweep)
        assert rc == 1
        *rows, summary = [json.loads(line) for line in out.splitlines()]
        assert [row["status"] for row in rows] == [
            "ok", "ok", "non-converged"] * 2
        assert all(list(row)[-1] == "seed" and row["seed"] == 7
                   for row in rows if row["status"] == "ok")
        assert (summary["passes"], summary["failures"],
                summary["skipped"]) == (2, 2, 2)
        assert (summary["passes"] + summary["failures"] + summary["skipped"]
                == summary["samples"] == 6)
        _, text, _ = run(capsys, [*sweep, "--format", "csv"])
        assert [row["seed"] for row in csv.DictReader(io.StringIO(text))
                ] == ["7"] * 6


class TestIdentityTable:
    def test_names(self):
        assert sorted(cli.IDENTITIES) == sorted([
            "str", "rinfstr", "strmsg", "master", "iconst", "thtfunct",
            "inversion", "cov", "brackets", "bridge", "limit_r",
            "limit_hbar"])
        assert all(name == ident.name
                   for name, ident in cli.IDENTITIES.items())
        assert sorted(name for name, ident in cli.IDENTITIES.items()
                      if ident.sample) == sorted([
            "str", "rinfstr", "strmsg", "master", "iconst", "thtfunct",
            "inversion", "cov"])

    def test_default_tolerances(self):
        assert {name: ident.tol for name, ident in cli.IDENTITIES.items()} == {
            "str": 1e-6, "rinfstr": 1e-6, "strmsg": 1e-4, "master": 1e-6,
            "iconst": 1e-6, "thtfunct": 1e-8, "inversion": 1e-10,
            "cov": 1e-8, "brackets": None, "bridge": 1e-10,
            "limit_r": None, "limit_hbar": None}

    def test_one_runner_each(self):
        # a list runner for the batched identities, a one-case runner for
        # the others, and never both
        for name, ident in cli.IDENTITIES.items():
            assert (ident.batch is None) != (ident.run is None), name
        assert sorted(name for name, ident in cli.IDENTITIES.items()
                      if ident.batch) == sorted([
            "str", "rinfstr", "master", "iconst", "thtfunct", "inversion"])

    def test_default_tolerances_match_verifiers(self):
        # each default is the tol default of the verifier its runner calls
        for name, ident in cli.IDENTITIES.items():
            runner = ident.batch or ident.run
            verifier, = [getattr(verify, attr)
                         for attr in runner.__code__.co_names
                         if attr.startswith("verify_")]
            tol = inspect.signature(verifier).parameters.get("tol")
            assert (None if tol is None else tol.default) == ident.tol, name


class TestPoles:
    def test_margin_report(self, tmp_path, capsys):
        from lenstri.params import physical_parameters
        pr = physical_parameters(0.05, 0.5, 2)
        h = (2j * pr.eta).imag / 6
        cfgfile = tmp_path / "poles.json"
        cfgfile.write_text(json.dumps({
            "r": 2,
            "t": [[0.1 * k, h] for k in range(-2, 3)],
            "u": [0, 1, -1, 0, 0]}))
        rc, out, _ = run(capsys, ["poles", "--config", str(cfgfile)])
        assert rc == 0
        rec = json.loads(out)
        assert rec["margin"] == pytest.approx(h)
        assert rec["safe"] is True

    def test_plain_number_t_matches_pairs(self, tmp_path, capsys):
        xs = [0.1, -0.2, 0.3, 0.05, -0.1]
        records = []
        for t in (xs, [[x, 0] for x in xs]):
            cfgfile = tmp_path / "poles.json"
            cfgfile.write_text(json.dumps({"r": 2, "t": t, "u": [0] * 5}))
            rc, out, _ = run(capsys, ["poles", "--config", str(cfgfile)])
            assert rc == 0
            records.append(json.loads(out))
        assert records[0] == records[1]
        assert records[0]["margin"] == 0.0

    def test_missing_t_rejected(self, capsys):
        rc, _, err = run(capsys, ["poles", "--r", "1"])
        assert rc == 2


class TestProcess:
    """State a process keeps between cli.main calls, and what it imports."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_parser_reused_after_error(self, capsys):
        argv = ["verify", "thtfunct", "--r", "2", "--seed", "3"]
        with pytest.raises(SystemExit) as exc:
            cli.main(["no_such_command"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(argv) == 0
        here = capsys.readouterr().out.encode()
        fresh = fresh_python(
            f"import sys; from lenstri import cli; sys.exit(cli.main({argv!r}))")
        assert here == fresh

    def test_a_repeated_sweep_keeps_its_heap(self, tmp_path):
        # the second of two like sweeps in one process finds the pages of
        # its batch arrays in the heap: few minor page faults, where a
        # heap that glibc trims after every level takes hundreds
        pytest.importorskip("resource")
        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("the C library has no mallopt")
        argv = ["sweep", "str", "--r", "3", "--samples", "6", "--out",
                str(tmp_path / "rows.jsonl")]
        out = fresh_python(
            "import resource\n"
            "from lenstri import cli\n"
            f"cli.main({argv!r})\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"cli.main({argv!r})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
            " - before)\n")
        assert int(out) < 50

    def test_scipy_only_in_gamma_limit(self):
        out = fresh_python(
            "import sys, contextlib, io\n"
            "from lenstri import cli, models\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', 'str', '--r', '1', '--seed', '3']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n"
            "print(repr(models.weight_gamma(0.4, models.Spin(0.5, 0),\n"
            "                               models.Spin(1.0, 1))))\n")
        loaded, value = out.decode().splitlines()
        assert loaded == "[]"
        # the value scipy's loggamma gave when scipy was imported at start-up
        assert value == "0.7185028900651217"

    def test_mpmath_only_when_a_verdict_is_taken_again(self):
        out = fresh_python(
            "import sys, contextlib, io\n"
            "from lenstri import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', 'thtfunct', '--r', '2', '--seed', '3']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'mpmath' or m.startswith('mpmath.')))\n")
        assert out.decode().strip() == "[]"
