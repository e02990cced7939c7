"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing pytest's capture so
the line always reaches the console) and then asserts the same result,
so the suite is both human-readable and machine-gating.  All thresholds
are fixed here and must not be loosened.
"""

import math
import time

import numpy as np
import pytest

from lenstri import cli, models, verify
from lenstri import special_functions as sf
from lenstri.models import ModelFamily, Spin
from lenstri.params import NomeParameters, physical_parameters


def report(capsys, number, description, ok):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_params(rng, r, im_lo=0.3, im_hi=0.7):
    sigma = complex(rng.uniform(-0.3, 0.3), rng.uniform(im_lo, im_hi))
    tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(im_lo, im_hi))
    return NomeParameters(sigma, tau, r)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_01_r1_reduction(capsys):
    # nome magnitudes <= 0.7 require Im sigma >= ln(1/0.7)/pi ~ 0.114
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params = random_params(rng, 1, im_lo=0.12, im_hi=0.6)
        assert abs(params.p) <= 0.7 and abs(params.q) <= 0.7
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
        lhs = sf.lens_elliptic_gamma(z, 0, params)
        rhs = sf.elliptic_gamma(z, params.p, params.q)
        worst = max(worst, rel(lhs, rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(capsys, 1,
           f"r=1 gamma reduction, 100 samples, max rel dev {worst:.2e} "
           f"(<=1e-12), {elapsed:.1f}s (<5s)", ok)


def test_criterion_02_inversion_periodicity_suites(capsys):
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = {}
    for _ in range(100):
        r = int(rng.integers(1, 6))
        params = random_params(rng, r)
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.1, 0.1))
        zu = complex(rng.uniform(-1, 1), rng.uniform(0.1, 0.4))
        m = int(rng.integers(-4, 5))

        d = worst.setdefault("elliptic_gamma inversion", 0.0)
        worst["elliptic_gamma inversion"] = max(d, abs(
            sf.elliptic_gamma(z, params.p, params.q)
            * sf.elliptic_gamma(-z, params.p, params.q) - 1.0))

        d = worst.setdefault("lens gamma inversion+periodicity", 0.0)
        v = sf.lens_elliptic_gamma(z, m, params)
        worst["lens gamma inversion+periodicity"] = max(
            d, abs(v * sf.lens_elliptic_gamma(-z, -m, params) - 1.0),
            rel(v, sf.lens_elliptic_gamma(z, m + r, params)))

        d = worst.setdefault("half-plane gamma inversion", 0.0)
        worst["half-plane gamma inversion"] = max(d, abs(
            sf.lens_gamma_appendix(zu, m, params)
            * sf.lens_gamma_appendix(2j * params.eta - zu, -m, params) - 1.0))

        d = worst.setdefault("theta reflection", 0.0)
        refl = (-np.exp(1j * (2 * math.pi * sf.mod_bracket(m, r) - z) / r)
                * sf.lens_theta(z, m, params))
        worst["theta reflection"] = max(d, rel(
            sf.lens_theta(-z, -m, params), refl))

        d = worst.setdefault("q-function inversion", 0.0)
        pr = physical_parameters(0.05, 0.5, r)
        worst["q-function inversion"] = max(d, abs(
            models.q_function(z, m, pr) * models.q_function(-z, -m, pr) - 1.0))
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak <= 1e-10 and elapsed < 30.0
    report(capsys, 2,
           f"inversion/periodicity suites (5 identities x 100), worst "
           f"{peak:.2e} (<=1e-10), {elapsed:.1f}s (<30s)", ok)


def test_criterion_03_bracket_identities(capsys):
    t0 = time.perf_counter()
    rep = verify.verify_bracket_identities(64)
    elapsed = time.perf_counter() - t0
    n = rep.numerics_meta["cases_checked"]
    ok = (rep.passed and rep.numerics_meta["failures"] == []
          and n == sum(6 * r + 1 for r in range(1, 65)) and elapsed < 5.0)
    report(capsys, 3,
           f"integer bracket identities, {n} cases over r in [1,64], "
           f"0 failures, {elapsed:.1f}s (<5s)", ok)


def test_criterion_04_kappa_functional_equations(capsys):
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        r = int(rng.integers(1, 4))
        pr = physical_parameters(0.05, 0.5, r)
        eta = pr.eta.real
        alpha = float(rng.uniform(0.02, 0.98)) * eta
        arg = 1j * (eta - 2 * alpha)
        worst = max(worst, rel(
            models.kappa_elliptic(eta - alpha, pr) / models.kappa_elliptic(alpha, pr),
            sf.lens_elliptic_gamma(arg, 0, pr)))
        worst = max(worst, rel(
            models.kappa_qlimit(eta - alpha, pr) / models.kappa_qlimit(alpha, pr),
            models.q_function(arg, 0, pr)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(capsys, 4,
           f"normalisation functional equations, 20 random angles, worst "
           f"{worst:.2e} (<=1e-8), {elapsed:.1f}s (<30s)", ok)


def test_criterion_05_star_triangle(capsys):
    rng = np.random.default_rng(105)
    worst, slowest = 0.0, 0.0
    for r in (1, 2, 3, 4):
        pr = physical_parameters(0.05, 0.5, r)
        for _ in range(10):
            case = cli.sample_str_case(rng, pr)
            t0 = time.perf_counter()
            rep = verify.verify_star_triangles(
                ModelFamily.ELLIPTIC, [(case["spins"], case["alphas"])], pr,
                tol=1e-6)[0]
            slowest = max(slowest, time.perf_counter() - t0)
            worst = max(worst, rep.rel_residual)
    ok = worst <= 1e-6 and slowest < 10.0
    report(capsys, 5,
           f"elliptic star-triangle, 10 cases each r=1..4, worst residual "
           f"{worst:.2e} (<=1e-6), slowest case {slowest:.1f}s (<10s)", ok)


def test_criterion_06_master_and_constant_form(capsys):
    rng = np.random.default_rng(106)
    worst_master, worst_const, worst_shift, slowest = 0.0, 0.0, 0.0, 0.0
    for r in (1, 2, 3):
        pr = physical_parameters(0.05, 0.5, r)
        for k in range(10):
            case = cli.sample_master_case(rng, pr)
            if r == 1 and k == 0:
                # elliptic beta integral: r=1 with all integer labels zero
                t = case["mp"].t
                case = {"mp": verify.MasterParameters(t, (0,) * 6, pr)}
            t0 = time.perf_counter()
            rep = verify.verify_masters([case["mp"]], tol=1e-6)[0]
            slowest = max(slowest, time.perf_counter() - t0)
            worst_master = max(worst_master, rep.rel_residual)
        for _ in range(10):
            case = cli.sample_iconst_case(rng, pr)
            t0 = time.perf_counter()
            rep = verify.verify_I_constants([(case["t"], case["u"])], pr,
                                            tol=1e-6, shift_tol=1e-7)[0]
            slowest = max(slowest, time.perf_counter() - t0)
            worst_const = max(worst_const, rep.rel_residual)
            worst_shift = max(worst_shift, rep.numerics_meta["shift_residual"])
    ok = (worst_master <= 1e-6 and worst_const <= 1e-6
          and worst_shift <= 1e-7 and slowest < 20.0)
    report(capsys, 6,
           f"master identity + constant form, r=1..3 x 10, residuals "
           f"{worst_master:.2e}/{worst_const:.2e} (<=1e-6), shift "
           f"{worst_shift:.2e} (<=1e-7), slowest {slowest:.1f}s (<20s)", ok)


def test_criterion_07_change_of_variables(capsys):
    rng = np.random.default_rng(107)
    worst = 0.0
    for k in range(5):
        r = (1, 1, 2, 2, 3)[k]
        pr = physical_parameters(0.05, 0.5, r)
        case = cli.sample_str_case(rng, pr)
        rep = verify.verify_cov_consistency(case["spins"], case["alphas"], pr,
                                            tol=1e-8)
        worst = max(worst, rep.numerics_meta["lhs_residual"],
                    rep.numerics_meta["rhs_residual"])
    ok = worst <= 1e-8
    report(capsys, 7,
           f"change-of-variables consistency, 5 cases, both sides "
           f"reproduced to {worst:.2e} (<=1e-8)", ok)


def test_criterion_08_theta_difference(capsys):
    rng = np.random.default_rng(108)
    worst, worst_shift, worst_pole = 0.0, 0.0, 0.0
    for r in (1, 2, 3):
        pr = physical_parameters(0.05, 0.5, r)
        for _ in range(50):
            case = cli.sample_thtfunct_case(rng, pr)
            rep = verify.verify_theta_differences(
                [(case["z"], case["y"], case["t"], case["u"])], pr,
                tol=1e-8)[0]
            worst = max(worst, rep.rel_residual)
            worst_shift = max(worst_shift,
                              rep.numerics_meta["period_shift_residual_lhs"],
                              rep.numerics_meta["period_shift_residual_rhs"])
            worst_pole = max(worst_pole,
                             abs(rep.numerics_meta["near_pole_lhs"] + 1),
                             abs(rep.numerics_meta["near_pole_rhs"] + 1))
    ok = worst <= 1e-8 and worst_shift <= 1e-8 and worst_pole <= 1e-4
    report(capsys, 8,
           f"theta difference identity, 150 samples over r=1..3, residual "
           f"{worst:.2e} (<=1e-8), period shift {worst_shift:.2e} (<=1e-8), "
           f"near-pole value within {worst_pole:.2e} of -1 (<=1e-4)", ok)


def test_criterion_09_rinf_star_triangle(capsys):
    rng = np.random.default_rng(109)
    pr = physical_parameters(0.05, 0.5, 1)
    worst, worst_tail = 0.0, 0.0
    for _ in range(10):
        case = cli.sample_rinfstr_case(rng, pr)
        rep = verify.verify_star_triangles(
            ModelFamily.Q_LIMIT, [(case["spins"], case["alphas"])], pr,
            tol=1e-6)[0]
        worst = max(worst, rep.rel_residual)
        worst_tail = max(worst_tail, rep.numerics_meta["tail_bound"])
    ok = worst <= 1e-6 and worst_tail < 0.1 * 1e-6
    report(capsys, 9,
           f"infinite-index star-triangle, 10 cases |m|<=3, residual "
           f"{worst:.2e} (<=1e-6), tail bound {worst_tail:.2e} (<1e-7)", ok)


def test_criterion_10_gamma_star_triangle(capsys):
    rng = np.random.default_rng(110)
    worst = 0.0
    cases = [cli.sample_strmsg_case(rng) for _ in range(10)]
    for case in cases:
        rep = verify.verify_strmsg(case["spins"], case["alphas"], tol=1e-4)
        worst = max(worst, rep.rel_residual)
    # refinement check: tightening the quadrature target must not make
    # the residual worse (it tightens both the line integrals, whose
    # trapezoid nodes double and whose sinh-mapped range widens, and the
    # m-sum)
    coarse = verify.verify_strmsg(cases[0]["spins"], cases[0]["alphas"],
                                  quad_tol=1e-4)
    fine = verify.verify_strmsg(cases[0]["spins"], cases[0]["alphas"],
                                quad_tol=1e-6)
    shrinks = fine.rel_residual <= coarse.rel_residual + 1e-14
    ok = worst <= 1e-4 and shrinks
    report(capsys, 10,
           f"gamma-limit star-triangle, 10 cases |m|<=3 |x|<=2, residual "
           f"{worst:.2e} (<=1e-4), refinement shrinks residual "
           f"({coarse.rel_residual:.2e} -> {fine.rel_residual:.2e})", ok)


def test_criterion_11_limit_consistency(capsys):
    pr = physical_parameters(0.05, 0.5, 1)
    rep_r = verify.verify_limit_r_to_inf(0.3, 1, pr, r_list=(4, 8, 16, 32))
    errs = rep_r.numerics_meta["errors"]
    rep_h = verify.verify_limit_hbar(0.4, 1.0, 0, hbar_list=(0.2, 0.1, 0.05))
    devs_ok = all(
        all(b < a for a, b in zip(seq, seq[1:]))
        for seq in (rep_h.numerics_meta["dev_q"],
                    rep_h.numerics_meta["dev_kappa"],
                    rep_h.numerics_meta["dev_single_spin"]))
    ok = rep_r.passed and rep_h.passed and devs_ok
    report(capsys, 11,
           f"limit consistency: finite-index deviation {errs[0]:.1e} -> "
           f"{errs[-1]:.1e} decreasing over r=4..32; semiclassical ratio "
           f"deviations strictly shrinking over hbar=0.2,0.1,0.05", ok)


def test_criterion_12_single_spin_two_forms(capsys):
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(50):
        r = int(rng.integers(1, 5))
        pr = physical_parameters(0.05, 0.5, r)
        s = Spin(float(rng.uniform(0.05, math.pi - 0.05)),
                 int(rng.integers(0, r // 2 + 1)))
        v1 = models.single_spin_elliptic(s, pr)
        v2 = models.single_spin_elliptic(s, pr, via_theta4=True)
        worst = max(worst, rel(v1, v2))
    ok = worst <= 1e-10
    report(capsys, 12,
           f"single-spin weight, gamma-product vs theta-product form, 50 "
           f"random spins r=1..4, worst {worst:.2e} (<=1e-10)", ok)


def test_criterion_13_sweep_determinism(capsys, tmp_path):
    def sweep(name):
        out = tmp_path / name
        rc = cli.main(["sweep", "thtfunct", "--r", "2", "--seed", "11",
                       "--samples", "8", "--out", str(out)])
        assert rc == 0
        return out.read_bytes()

    first = sweep("run1.jsonl")
    second = sweep("run2.jsonl")
    third = sweep("run3.jsonl")
    ok = first == second == third
    report(capsys, 13,
           "sweep determinism: fixed-seed reports byte-identical across "
           "repeated runs", ok)
