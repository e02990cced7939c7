"""Tests for the identity verification engine.

Quadrature-backed verifiers are checked against an independent oracle
(re-running at a finer resolution must not move the answer), and every
identity is exercised on at least one hand-picked configuration.
"""

import cmath
import math
from typing import Sequence

import numpy as np
import pytest

from lenstri import cli, models, numerics, verify
from lenstri import special_functions as sf
from lenstri.models import ModelFamily, Spin
from lenstri.params import (
    ContourViolationError,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    physical_parameters,
)


def sample_t(rng, n, span):
    im = span * (0.4 / n + 0.6 * rng.dirichlet([2.0] * n))
    re = rng.uniform(-0.8, 0.8, n)
    re -= re.mean()
    return [complex(a, b) for a, b in zip(re, im)]


def rho(z, y, t: Sequence[complex], u: Sequence[int], params: NomeParameters):
    """The constant-form integrand rho(z, y; t_1..t_5, u_1..u_5): the
    master integrand at the constant form over the master right side."""
    v, rhs = verify.master_integrand(z, y, verify.constant_form(t, u, params),
                                     right_side=True)
    return v / rhs


def g_function(z: complex, y: int, t: Sequence[complex], u: Sequence[int],
               params: NomeParameters) -> complex:
    """The telescoping companion G of the difference equation for rho."""
    r = params.r
    A, U = sum(t), sum(u)
    th = lambda zz, mm: sf.lens_theta(zz, mm, params)
    acc = rho(z, y, t, u, params)
    acc *= cmath.exp(2j * math.pi * sf.mod_bracket(y - u[0], r) / r)
    acc *= cmath.exp(1j * (t[0] - z) / r)
    num = 1.0 + 0.0j
    for ti, ui in zip(t, u):
        num *= th(ti + z, ui + y)
    den = 1.0 + 0.0j
    for ti, ui in zip(t[1:], u[1:]):
        den *= th(t[0] + ti, u[0] + ui)
    return acc * num / den * th(t[0] + A, u[0] + U) / (th(2 * z, 2 * y) * th(A + z, U + y))


def pole_margin_enumerated(t, u, params, depth=3):
    """Pole-lattice margin over lattice indices j, k < depth."""
    r = params.r
    ims, imt = math.pi * params.sigma.imag, math.pi * params.tau.imag
    im2eta = math.pi * (params.sigma.imag + params.tau.imag)
    A, U = sum(t), sum(u)
    margin = math.inf
    for y in range(r):
        for j in range(depth):
            for k in range(depth):
                for ti, ui in zip(t, u):
                    for b in (sf.mod_bracket(ui - y, r), sf.mod_bracket(ui + y, r)):
                        margin = min(margin,
                                     ti.imag + ims * (r * j + b) + im2eta * k,
                                     ti.imag + imt * (r * (1 + j) - b) + im2eta * k)
                for b in (sf.mod_bracket(U + y, r), sf.mod_bracket(U - y, r)):
                    margin = min(margin,
                                 -A.imag + ims * (r * (j + 1) - b) + im2eta * (k + 1),
                                 -A.imag + imt * (r * j + b) + im2eta * (k + 1))
    return margin


class TestReportPlumbing:
    def test_relative_residual(self):
        rep = verify.make_report("x", {}, 2.0, 2.0 + 1e-8j, 1e-6)
        assert rep.passed
        assert rep.rel_residual == pytest.approx(5e-9)

    def test_absolute_fallback_for_tiny_rhs(self):
        rep = verify.make_report("x", {}, 1e-12, 0.0, 1e-10)
        assert rep.passed
        rep = verify.make_report("x", {}, 1e-8, 0.0, 1e-10)
        assert not rep.passed

    def test_passes_when_all_named_checks_pass(self):
        rep = verify.make_report("x", {}, 1.0, 1.0, 1e-6,
                                 checks={"extra": True})
        assert list(rep.checks) == ["residual", "extra"]
        assert rep.passed
        rep = verify.make_report("x", {}, 1.0, 1.0, 1e-6,
                                 checks={"extra": False})
        assert rep.checks["residual"] and not rep.passed

    def test_checks_can_replace_residual(self):
        rep = verify.make_report("x", {}, 1.0, 2.0, 1e-6,
                                 checks={"own": True}, residual=False)
        assert rep.checks == {"own": True}
        assert rep.passed

    def test_master_parameter_invariants(self):
        pr = physical_parameters(0.05, 0.5, 1)
        good = tuple(2j * pr.eta / 6 + dx for dx in (0.1, -0.1, 0.2, -0.2, 0.3, -0.3))
        verify.MasterParameters(good, (0,) * 6, pr)
        with pytest.raises(InvalidParameterError):
            verify.MasterParameters(good, (1, 0, 0, 0, 0, 0), pr)
        with pytest.raises(InvalidParameterError):
            verify.MasterParameters(tuple(t + 0.01 for t in good), (0,) * 6, pr)

    @pytest.mark.parametrize("verifier", [
        lambda pr: verify.verify_star_triangles(ModelFamily.ELLIPTIC, [], pr),
        lambda pr: verify.verify_masters([]),
        lambda pr: verify.verify_I_constants([], pr),
        lambda pr: verify.verify_theta_differences([], pr),
        lambda pr: verify.verify_inversions([], pr)],
        ids=["star_triangles", "masters", "I_constants", "theta_differences",
             "inversions"])
    def test_empty_list(self, verifier):
        # a list verifier of no cases returns no reports
        assert verifier(physical_parameters(0.05, 0.5, 2)) == []


class TestStarTriangle:
    def test_r1_passes(self):
        pr = physical_parameters(0.05, 0.5, 1)
        eta = pr.eta.real
        spins = (Spin(0.6, 0), Spin(1.7, 0), Spin(2.9, 0))
        rep = verify.verify_star_triangles(
            ModelFamily.ELLIPTIC, [(spins, (0.2 * eta, 0.3 * eta, 0.5 * eta))],
            pr)[0]
        assert rep.passed, rep.rel_residual

    def test_degenerate_spins_r2(self):
        pr = physical_parameters(0.05, 0.5, 2)
        eta = pr.eta.real
        spins = (Spin(0.0, 0), Spin(0.0, 0), Spin(0.0, 0))
        rep = verify.verify_star_triangles(
            ModelFamily.ELLIPTIC, [(spins, (eta / 3, eta / 3, eta / 3))],
            pr)[0]
        assert rep.passed, rep.rel_residual

    def test_refinement_oracle(self):
        # quadrupling the quadrature resolution must not move the LHS
        pr = physical_parameters(0.05, 0.5, 2)
        eta = pr.eta.real
        spins = (Spin(0.8, 1), Spin(1.9, 0), Spin(2.4, 1))
        alphas = (0.25 * eta, 0.35 * eta, 0.4 * eta)
        coarse = verify.verify_star_triangles(
            ModelFamily.ELLIPTIC, [(spins, alphas)], pr, quad_tol=1e-8)[0]
        fine = verify.verify_star_triangles(
            ModelFamily.ELLIPTIC, [(spins, alphas)], pr, quad_tol=1e-11)[0]
        assert abs(coarse.lhs - fine.lhs) <= 1e-7 * abs(fine.lhs)

    def test_alpha_constraint_enforced(self):
        pr = physical_parameters(0.05, 0.5, 1)
        spins = (Spin(0.6, 0), Spin(1.7, 0), Spin(2.9, 0))
        with pytest.raises(InvalidParameterError):
            verify.verify_star_triangles(ModelFamily.ELLIPTIC,
                                         [(spins, (0.5, 0.5, 0.6))], pr)

    def test_complex_eta_rejected(self):
        # sigma = tau gives eta = pi (0.5 - 0.05i): no verdict on it; its
        # real part alone would give residuals of 0.26 (str) and 1.6
        # (rinfstr), false failures
        pr = NomeParameters(0.05 + 0.5j, 0.05 + 0.5j, 2)
        spins = (Spin(0.6, 0), Spin(1.7, 1), Spin(2.9, 0))
        alphas = (0.2 * pr.eta.real, 0.3 * pr.eta.real, 0.5 * pr.eta.real)
        for family in (ModelFamily.ELLIPTIC, ModelFamily.Q_LIMIT):
            with pytest.raises(InvalidParameterError, match="real eta"):
                verify.verify_star_triangles(family, [(spins, alphas)], pr)

    @pytest.mark.parametrize("family", [ModelFamily.ELLIPTIC,
                                        ModelFamily.Q_LIMIT],
                             ids=["str", "rinfstr"])
    def test_real_eta_off_the_conjugate_pair(self, family):
        # Re(sigma + tau) = 0 with Im sigma != Im tau: eta is real and the
        # relation holds, on the weights' full path (all gamma factors)
        pr = NomeParameters(0.05 + 0.5j, -0.05 + 0.7j, 3)
        eta = pr.eta.real
        spins = (Spin(0.6, 0), Spin(1.7, 1), Spin(2.9, 1))
        rep = verify.verify_star_triangles(
            family, [(spins, (0.2 * eta, 0.3 * eta, 0.5 * eta))], pr)[0]
        assert rep.rel_residual <= 1e-13


class TestRInfStarTriangle:
    def test_zero_spins(self):
        pr = physical_parameters(0.05, 0.5, 1)
        eta = pr.eta.real
        spins = (Spin(0.0, 0), Spin(0.0, 0), Spin(0.0, 0))
        rep = verify.verify_star_triangles(
            ModelFamily.Q_LIMIT, [(spins, (eta / 3, eta / 3, eta / 3))],
            pr)[0]
        assert rep.passed, rep.rel_residual

    def test_nonzero_integer_parts(self):
        pr = physical_parameters(0.05, 0.5, 1)
        eta = pr.eta.real
        spins = (Spin(0.9, 2), Spin(1.4, -1), Spin(2.6, 0))
        rep = verify.verify_star_triangles(
            ModelFamily.Q_LIMIT,
            [(spins, (0.3 * eta, 0.45 * eta, 0.25 * eta))], pr)[0]
        assert rep.passed, rep.rel_residual
        assert rep.numerics_meta["tail_bound"] <= 0.1 * rep.tolerance

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_fixed_seed_residuals(self, seed):
        # the six draws of `lenstri sweep rinfstr --samples 6 --seed <seed>`
        pr = physical_parameters(0.05, 0.5, 1)
        for index in range(6):
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            case = cli.sample_rinfstr_case(rng, pr)
            rep = verify.verify_star_triangles(
                ModelFamily.Q_LIMIT, [(case["spins"], case["alphas"])],
                pr)[0]
            assert rep.passed
            assert rep.rel_residual <= 1e-12, (index, rep.rel_residual)

    def test_one_integral(self, monkeypatch):
        # every m-term on axis 0 of one integrand batch
        calls = []
        integrate = numerics.Trapezoid

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)
        monkeypatch.setattr(numerics, "Trapezoid", counted)
        pr = physical_parameters(0.05, 0.5, 1)
        case = cli.sample_rinfstr_case(np.random.default_rng(5), pr)
        verify.verify_star_triangles(ModelFamily.Q_LIMIT,
                                     [(case["spins"], case["alphas"])], pr)
        assert len(calls) == 1

    def test_capped_sum(self, monkeypatch):
        # max |m_i| = 2 and four terms past it at the default nomes: the
        # sum needs m = 0..6, seven terms
        pr = physical_parameters(0.05, 0.5, 1)
        eta = pr.eta.real
        spins = (Spin(0.9, 2), Spin(1.4, -1), Spin(2.6, 0))
        alphas = (0.3 * eta, 0.45 * eta, 0.25 * eta)
        monkeypatch.setattr(verify, "MAX_SUM_TERMS", 5)
        with pytest.raises(NonConvergenceError, match="m-sum needs 7 terms"):
            verify.verify_star_triangles(ModelFamily.Q_LIMIT,
                                         [(spins, alphas)], pr)
        monkeypatch.undo()
        rep = verify.verify_star_triangles(ModelFamily.Q_LIMIT,
                                           [(spins, alphas)], pr)[0]
        assert rep.numerics_meta["m_terms"] == 7

    @pytest.mark.parametrize("quad_tol", [0.0, -1e-8, math.nan])
    def test_quad_tol_not_positive(self, quad_tol):
        # the m-sum's length is worked out from the tolerance, before any
        # integral
        pr = physical_parameters(0.05, 0.5, 1)
        eta = pr.eta.real
        for family in (ModelFamily.ELLIPTIC, ModelFamily.Q_LIMIT):
            with pytest.raises(InvalidParameterError, match="positive"):
                verify.verify_star_triangles(
                    family, [((Spin(0.9, 0), Spin(1.4, 0), Spin(2.6, 0)),
                              (eta / 3, eta / 3, eta / 3))], pr,
                    quad_tol=quad_tol)

    def test_terms_that_do_not_decay(self, monkeypatch):
        # rows of equal size leave a tail that no geometric bound covers
        def rows_of_ones(family, s0, *args, right_side=None, **kwargs):
            v = np.ones(np.broadcast(s0.x, s0.m).shape, complex)
            return v if right_side is None else (v, 1.0)
        monkeypatch.setattr(models, "star_integrand", rows_of_ones)
        pr = physical_parameters(0.05, 0.5, 1)
        eta = pr.eta.real
        with pytest.raises(NonConvergenceError, match="m-sum tail"):
            verify.verify_star_triangles(
                ModelFamily.Q_LIMIT, [((Spin(0.9, 1), Spin(1.4, 0),
                                        Spin(2.6, 0)),
                                       (eta / 3, eta / 3, eta / 3))], pr)


class TestGammaStarTriangle:
    def test_symmetric_point(self):
        spins = (Spin(0.0, 0), Spin(0.0, 0), Spin(0.0, 0))
        rep = verify.verify_strmsg(spins, (1 / 3, 1 / 3, 1 / 3))
        assert rep.passed, rep.rel_residual

    def test_mixed_spins(self):
        spins = (Spin(0.5, 0), Spin(1.0, 1), Spin(-0.3, -1))
        rep = verify.verify_strmsg(spins, (0.3, 0.45, 0.25))
        assert rep.passed, rep.rel_residual

    def test_residual_stable_under_refinement(self):
        spins = (Spin(0.5, 0), Spin(1.0, 1), Spin(-0.3, -1))
        alphas = (0.3, 0.45, 0.25)
        coarse = verify.verify_strmsg(spins, alphas, quad_tol=1e-4)
        fine = verify.verify_strmsg(spins, alphas, quad_tol=1e-6)
        assert fine.rel_residual <= coarse.rel_residual + 1e-14

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_fixed_seed_residuals(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(2):
            case = cli.sample_strmsg_case(rng)
            rep = verify.verify_strmsg(case["spins"], case["alphas"])
            assert rep.passed
            assert rep.rel_residual <= 1e-8, rep.rel_residual

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_chunk_terms_match_terms_alone(self, monkeypatch, seed):
        # the draws of test_fixed_seed_residuals: every chunk of m-terms
        # cuts the line at T = 8, as each m-term does alone, and each
        # m-term of a chunk is line_integrate of that m alone, bit for bit
        chunks, periods = [], []
        line_integrals, trapezoid = numerics.line_integrals, numerics.Trapezoid

        def recorded(f, count, tol):
            chunks.append((tol, line_integrals(f, count, tol)))
            return chunks[-1][1]

        class Recorded(trapezoid):
            def __init__(self, period, *args, **kwargs):
                periods.append(period)
                super().__init__(period, *args, **kwargs)
        rng = np.random.default_rng(seed)
        for _ in range(2):
            case = cli.sample_strmsg_case(rng)
            monkeypatch.setattr(numerics, "line_integrals", recorded)
            monkeypatch.setattr(numerics, "Trapezoid", Recorded)
            verify.verify_strmsg(case["spins"], case["alphas"])
            monkeypatch.undo()
            assert periods and set(periods) == {16.0}
            crossed = [1 - a for a in case["alphas"]]
            for k, (tol, results) in enumerate(chunks):
                for i, res in enumerate(results):
                    m = k * verify.STRMSG_CHUNK + i
                    alone = numerics.line_integrate(
                        lambda x: models.star_integrand(
                            ModelFamily.GAMMA_LIMIT, Spin(x, m),
                            case["spins"], crossed, None),
                        tol, vectorized=True)
                    assert res == alone, m
            chunks.clear()
            periods.clear()

    def test_terms_even_in_m(self):
        # the m-sum adds term(m) twice for m >= 1 on the strength of this
        case = cli.sample_strmsg_case(np.random.default_rng(5))
        (si, sj, sk), (ai, aj, ak) = case["spins"], case["alphas"]

        def term(m):
            def f(x):
                s0 = Spin(x, m)
                return (models.single_spin_gamma(s0)
                        * models.weight_gamma(1 - ai, si, s0)
                        * models.weight_gamma(1 - aj, sj, s0)
                        * models.weight_gamma(1 - ak, sk, s0))
            res = numerics.line_integrate(f, 1e-14, vectorized=True)
            assert res.converged
            return res.value
        for m in range(1, 7):
            assert abs(term(-m) - term(m)) <= 1e-14 * abs(term(m)), m


class TestMasterIdentity:
    def test_elliptic_beta_reduction(self):
        # r=1 with all u=0 is the elliptic beta integral
        pr = physical_parameters(0.05, 0.5, 1)
        t = sample_t(np.random.default_rng(21), 6, (2j * pr.eta).imag)
        t[5] = 2j * pr.eta - sum(t[:5])
        mp = verify.MasterParameters(tuple(t), (0,) * 6, pr)
        rep = verify.verify_masters([mp])[0]
        assert rep.passed, rep.rel_residual

    def test_r2_with_nonzero_u(self):
        pr = physical_parameters(0.05, 0.5, 2)
        t = sample_t(np.random.default_rng(22), 6, (2j * pr.eta).imag)
        t[5] = 2j * pr.eta - sum(t[:5])
        mp = verify.MasterParameters(tuple(t), (1, -1, 0, 0, 0, 0), pr)
        rep = verify.verify_masters([mp])[0]
        assert rep.passed, rep.rel_residual

    def test_unsafe_contour_rejected(self):
        pr = physical_parameters(0.05, 0.5, 1)
        span = (2j * pr.eta).imag
        t = [complex(0.1, 1e-6)] + [complex(d, span / 5) for d in
                                    (-0.2, 0.15, -0.05, 0.1)]
        t.append(2j * pr.eta - sum(t))
        mp = verify.MasterParameters(tuple(t), (0,) * 6, pr)
        with pytest.raises(ContourViolationError):
            verify.verify_masters([mp])

    @pytest.mark.parametrize("quad_tol", [0.0, -1e-8, math.nan])
    def test_quad_tol_not_positive(self, monkeypatch, quad_tol):
        # rejected before any integrand call, as str and rinfstr do
        def refuse(*args, **kwargs):
            raise AssertionError("integrated at a tolerance not positive")
        monkeypatch.setattr(verify, "master_integrand", refuse)
        pr = physical_parameters(0.05, 0.5, 2)
        t = sample_t(np.random.default_rng(22), 6, (2j * pr.eta).imag)
        t[5] = 2j * pr.eta - sum(t[:5])
        mp = verify.MasterParameters(tuple(t), (1, -1, 0, 0, 0, 0), pr)
        with pytest.raises(InvalidParameterError, match="positive"):
            verify.verify_masters([mp], quad_tol=quad_tol)


#: real parts of the constant-form t of ICONST_REJECTED
ICONST_RE = (-0.2, 0.1, 0.05, -0.1, 0.15)
#: (Im t, u, error) of constant-form cases at r = 2, where Im(2i eta) = pi,
#: the shift t_1 -> t_1 + pi sigma adds pi/2 to Im(A) and the contour
#: needs a margin of 0.05 eta = 0.0785; each is rejected before any integral
ICONST_REJECTED = [
    ((0.2,) * 4, (0,) * 5, InvalidParameterError),          # four t
    ((0.2,) * 5, (0,) * 6, InvalidParameterError),          # six u
    ((0.7,) * 5, (0,) * 5, InvalidParameterError),          # Im A = 3.5
    ((0.4,) * 5, (1, 0, -1, 0, 0), InvalidParameterError),  # shifted 3.57
    ((1e-3,) + (0.2,) * 4, (0,) * 5, ContourViolationError),
    ((0.306,) * 5, (0,) * 5, ContourViolationError),        # shifted 0.042
]


class TestConstantForm:
    @pytest.mark.parametrize("im,u,error", ICONST_REJECTED)
    def test_rejected_before_integrating(self, monkeypatch, im, u, error):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated a rejected case")
        monkeypatch.setattr(numerics, "Trapezoid", refuse)
        t = tuple(complex(a, b) for a, b in zip(ICONST_RE, im))
        with pytest.raises(error):
            verify.verify_I_constants([(t, u)],
                                      physical_parameters(0.05, 0.5, 2))

    @pytest.mark.parametrize("quad_tol,shift_tol", [
        (0.0, 1e-7), (-1e-8, 1e-7), (math.nan, 1e-7), (1e-7, 0.0)])
    def test_quad_tol_not_positive(self, monkeypatch, quad_tol, shift_tol):
        # the shifted integral's tolerance is at most shift_tol / 10
        def refuse(*args, **kwargs):
            raise AssertionError("integrated at a tolerance not positive")
        monkeypatch.setattr(verify, "master_integrand", refuse)
        pr = physical_parameters(0.05, 0.5, 1)
        t = tuple(sample_t(np.random.default_rng(23), 5,
                           0.4 * (2j * pr.eta).imag))
        with pytest.raises(InvalidParameterError, match="positive"):
            verify.verify_I_constants([(t, (0,) * 5)], pr,
                                      shift_tol=shift_tol, quad_tol=quad_tol)

    def test_rounding_floor_above_tolerance(self):
        # sigma = 2.5i, tau = 3i, r = 6: the integrand at t reaches 6e9
        # times its mean, so that rounding moves the integral by 4e-7 while
        # two level changes fall within quad_tol 1e-7; the stop is noise
        params = NomeParameters(2.5j, 3j, 6)
        case = cli._sample(cli.IDENTITIES["iconst"], params, 8324, 2)
        with pytest.raises(NonConvergenceError, match="rounding floor"):
            verify.verify_I_constants([(case["t"], case["u"])], params)

    def test_r1_constant(self):
        pr = physical_parameters(0.05, 0.5, 1)
        t = tuple(sample_t(np.random.default_rng(23), 5,
                           0.4 * (2j * pr.eta).imag))
        rep = verify.verify_I_constants([(t, (0,) * 5)], pr)[0]
        assert rep.passed, (rep.rel_residual, rep.numerics_meta)
        assert rep.numerics_meta["shift_residual"] <= 1e-7
        assert list(rep.checks) == ["residual", "shift_invariance"]

    def test_r2_with_u(self):
        pr = physical_parameters(0.05, 0.5, 2)
        t = tuple(sample_t(np.random.default_rng(24), 5,
                           0.4 * (2j * pr.eta).imag))
        rep = verify.verify_I_constants([(t, (1, -1, 0, 1, -1))], pr)[0]
        assert rep.passed, (rep.rel_residual, rep.numerics_meta)

    def test_near_degenerate_pair_trend(self):
        # t1+t2 -> 0 is the residue regime; the identity must keep holding
        # as the pair sum shrinks toward it
        pr = physical_parameters(0.05, 0.5, 1)
        base = sample_t(np.random.default_rng(25), 5, 0.35 * (2j * pr.eta).imag)
        for gap in (1e-2, 1e-3):
            t = list(base)
            # place t2 nearly opposite t1 in the real direction
            t[1] = complex(-t[0].real + gap, t[1].imag)
            rep = verify.verify_I_constants([(tuple(t), (0,) * 5)], pr)[0]
            assert rep.passed, (gap, rep.rel_residual)


class TestThetaDifference:
    def _case(self, r, seed):
        pr = physical_parameters(0.05, 0.5, r)
        rng = np.random.default_rng(seed)
        t = tuple(sample_t(rng, 5, 1.6 * pr.eta.real))
        u = tuple(int(v) for v in rng.integers(-2, 3, 5))
        y = int(rng.integers(0, r))
        z = complex(rng.uniform(0, 2 * math.pi), rng.uniform(-0.1, 0.1))
        return pr, t, u, y, z

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_identity_and_shift(self, r):
        pr, t, u, y, z = self._case(r, 30 + r)
        rep = verify.verify_theta_differences([(z, y, t, u)], pr)[0]
        assert rep.passed, rep.rel_residual
        assert rep.numerics_meta["period_shift_residual_lhs"] <= 1e-8
        assert rep.numerics_meta["period_shift_residual_rhs"] <= 1e-8

    def test_rhs_cancellation_explains_a_shift_failure(self):
        # sample 7 of `sweep thtfunct --r 1 --seed 1572004784`: z lies near a
        # zero of theta(+-2z, +-2y), the right side's two terms cancel by
        # about six digits and period_shift_rhs fails in double precision;
        # the verdict is taken again at 30 digits, where it passes.  Sample
        # 9 does not cancel and keeps its double-precision verdict
        ident = cli.IDENTITIES["thtfunct"]
        pr = physical_parameters(0.05, 0.5, 1)
        bad, _ = cli._verify_one(ident, pr, ident.tol,
                                 cli._sample(ident, pr, 1572004784, 7))
        good, _ = cli._verify_one(ident, pr, ident.tol,
                                  cli._sample(ident, pr, 1572004784, 9))
        assert bad.passed
        assert bad.numerics_meta["rhs_precision"] == 30
        assert bad.numerics_meta["rhs_cancellation"] > 1e5
        assert good.passed
        assert good.numerics_meta["rhs_precision"] == 16
        assert 1.0 <= good.numerics_meta["rhs_cancellation"] < 10.0

    def test_thirty_digits_taken_again_where_they_cancel(self):
        # sample 2 of `sweep thtfunct --r 1 --seed 38` at sigma =
        # 2.5449667378316443i, tau = 0.1015625i: the right side's two terms
        # cancel by about 3e21, so a 30-digit re-take keeps about 8 digits
        # and fails; the verdict is taken once more, at 16 + 22 + 2 digits
        sigma = 2.5449667378316443j
        pr = NomeParameters(sigma, complex(-sigma.real, 0.1015625), 1)
        ident = cli.IDENTITIES["thtfunct"]
        cases = [cli._sample(ident, pr, 38, i) for i in range(3)]
        for rep, status in cli._sweep_batch(ident, pr, ident.tol, cases):
            assert status == "ok" and rep.passed, rep.checks
        rep = verify.verify_theta_differences(
            [tuple(cases[2][k] for k in "zytu")], pr)[0]
        assert rep.numerics_meta["rhs_precision"] == 40
        assert rep.rel_residual <= 1e-17
        assert rep.numerics_meta["period_shift_residual_rhs"] <= 1e-17

    def test_thirty_digit_verdict_reports_its_residual(self):
        # sample 7 of `sweep thtfunct --r 1 --seed 1572004784` takes its
        # verdict at 30 digits; its residual is that of the 30-digit sides,
        # not of their doubles, which agree to the last bit
        ident = cli.IDENTITIES["thtfunct"]
        pr = physical_parameters(0.05, 0.5, 1)
        rep, _ = cli._verify_one(ident, pr, ident.tol,
                                 cli._sample(ident, pr, 1572004784, 7))
        assert rep.numerics_meta["rhs_precision"] == 30
        assert 0 < rep.rel_residual <= 1e-20
        assert 0 < rep.abs_residual <= 1e-20 * max(abs(rep.lhs), abs(rep.rhs))
        assert type(rep.lhs) is complex and type(rep.rel_residual) is float

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_points_in_one_batch_match_one_point_calls(self, r):
        pr, t, u, y, z = self._case(r, 50 + r)
        points = [z, z + math.pi * pr.tau * r, z - 0.3 + 0.02j]
        (batch,) = verify._difference_sides([(np.array(points), y, t, u)], pr)
        for k, zk in enumerate(points):
            (one,) = verify._difference_sides([(np.array(zk), y, t, u)], pr)
            one = tuple(side.item() for side in one)
            assert type(one[0]) is complex and type(one[2]) is float
            # the batch shares its truncation depth, so the last bits move
            # by the rounding that the cancellation amplifies
            rel = 1e-13 * max(one[2], batch[2][k])
            for side in range(2):
                assert abs(batch[side][k] - one[side]) <= rel * abs(one[side])
            assert abs(batch[2][k] - one[2]) <= rel * one[2]

    def test_double_precision_verdict_without_cancellation(self):
        pr, t, u, y, z = self._case(2, 32)
        rep = verify.verify_theta_differences([(z, y, t, u)], pr)[0]
        assert rep.passed
        assert rep.numerics_meta["rhs_precision"] == 16

    def test_recompute_gives_the_double_sides(self):
        # away from cancellation the 30-digit sides agree with the double
        # ones to rounding
        pr, t, u, y, z = self._case(3, 33)
        lhs, rhs, cancel = (side.item() for side in verify._difference_sides(
            [(np.array(z), y, t, u)], pr)[0])
        lhs_mp, rhs_mp, shift_rhs = verify._theta_difference_mp(z, y, t, u, pr)
        assert abs(lhs_mp - lhs) <= 1e-13 * cancel * max(1.0, abs(lhs))
        assert abs(rhs_mp - rhs) <= 1e-13 * cancel * abs(rhs)
        # both sides are rounded to double only at the end
        assert abs(lhs_mp - rhs_mp) <= 2 ** -52 * abs(rhs_mp)
        assert shift_rhs <= 1e-25

    def test_near_pole_value(self):
        pr, t, u, y, z = self._case(2, 41)
        rep = verify.verify_theta_differences([(z, y, t, u)], pr)[0]
        assert abs(rep.numerics_meta["near_pole_lhs"] + 1) <= 1e-4
        assert abs(rep.numerics_meta["near_pole_rhs"] + 1) <= 1e-4

    def test_difference_equation_oracle(self):
        # independent route: the same identity written through the ratio
        # rho and its telescoping companion must balance exactly
        pr = physical_parameters(0.05, 0.5, 2)
        rng = np.random.default_rng(42)
        t = tuple(sample_t(rng, 5, 0.4 * (2j * pr.eta).imag))
        u = (1, 0, -1, 1, 0)
        z = 0.83 + 0.02j
        for y in range(pr.r):
            shifted = rho(z, y, (t[0] + math.pi * pr.sigma,) + t[1:],
                          (u[0] - 1,) + u[1:], pr)
            lhs = shifted - rho(z, y, t, u, pr)
            rhs = (g_function(z - math.pi * pr.sigma, y + 1, t, u, pr)
                   - g_function(z, y, t, u, pr))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


class TestIntegrandSymmetries:
    """The symmetries that let the quadrature verifiers evaluate half of
    their integrands, and the stacked integrands against the scalar
    per-weight path."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_master_and_rho_sums_are_even(self, r):
        pr = physical_parameters(0.05, 0.5, r)
        rng = np.random.default_rng(60 + r)
        mp = cli.sample_master_case(rng, pr)["mp"]
        ic = cli.sample_iconst_case(rng, pr)
        y = np.arange(r)[:, None]
        z = rng.uniform(0.0, 2 * math.pi, 6)
        for f in (lambda z: verify.master_integrand(z, y, mp).sum(axis=0),
                  lambda z: rho(z, y, ic["t"], ic["u"], pr).sum(axis=0)):
            for mirror in (-z, 2 * math.pi - z):
                assert np.all(np.abs(f(mirror) - f(z)) <= 1e-14 * np.abs(f(z)))

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_str_centre_sum_is_even(self, r):
        # the sum over m0 in Z_r at S~ = S / (2 eps) is even in x0 and
        # integrates to the sum over m0 = 0..r//2 at S, which is not even
        # once a sector pairs with another (r >= 3)
        pr = physical_parameters(0.05, 0.5, r)
        rng = np.random.default_rng(100 + r)
        case = cli.sample_str_case(rng, pr)
        crossed = [pr.eta.real - a for a in case["alphas"]]

        def z_r(x):
            return models.star_integrand(
                ModelFamily.ELLIPTIC, Spin(x, np.arange(r)[:, None]),
                case["spins"], crossed, pr).sum(axis=0)

        def half(x):
            total = 0.0
            for m0 in range(r // 2 + 1):
                s0 = Spin(x, m0)
                v = models.single_spin_elliptic(s0, pr, via_theta4=True)
                for a, s in zip(crossed, case["spins"]):
                    v = v * models.weight_elliptic(a, s, s0, pr)
                total = total + v
            return total
        x = rng.uniform(0.0, math.pi, 6)
        for f, even in ((z_r, True), (half, r < 3)):
            off = np.abs(f(math.pi - x) - f(x)).max()
            assert bool(off <= 1e-14 * np.abs(f(x)).max()) == even
        whole, old = (numerics.periodic_integrate(f, math.pi, 1e-14,
                                                  vectorized=True)
                      for f in (z_r, half))
        assert whole.converged and old.converged
        assert abs(whole.value - old.value) <= 1e-14 * abs(old.value)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rinfstr_term_is_even_in_m(self, m):
        pr = physical_parameters(0.05, 0.5, 1)
        case = cli.sample_rinfstr_case(np.random.default_rng(70 + m), pr)
        crossed = [pr.eta.real - a for a in case["alphas"]]

        def term(m0):
            res = numerics.periodic_integrate(
                lambda x: models.star_integrand(
                    ModelFamily.Q_LIMIT, Spin(x, m0), case["spins"], crossed,
                    pr), math.pi, 1e-14, vectorized=True)
            assert res.converged
            return res.value
        assert abs(term(-m) - term(m)) <= 1e-14 * abs(term(m))

    @staticmethod
    def centre_weight(s, pr):
        """S~(s) = S(s) / (2 eps(m)) at any m in Z_r, through the mirror
        (pi - x, r - m) of S's own domain 0 <= m <= r/2."""
        if s.m > pr.r // 2:
            s = Spin(math.pi - s.x, pr.r - s.m)
        return (models.single_spin_elliptic(s, pr, via_theta4=True)
                / (2 * models.epsilon_factor(s.m, pr.r)))

    @classmethod
    def scalar_integrand(cls, family, x, sectors, spins, crossed, pr):
        """Sum over the sectors of S(s0) (S~(s0) in the elliptic family)
        times three separate weight calls."""
        if family is ModelFamily.ELLIPTIC:
            single = lambda s: cls.centre_weight(s, pr)
            weight = models.weight_elliptic
        else:
            single = lambda s: models.single_spin_qlimit(s, pr)
            weight = models.weight_qlimit
        total = 0.0
        for m0 in sectors:
            s0 = Spin(x, m0)
            total += (single(s0) * weight(crossed[0], spins[0], s0, pr)
                      * weight(crossed[1], spins[1], s0, pr)
                      * weight(crossed[2], spins[2], s0, pr))
        return total

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_stacked_integrands_match_scalar_path(self, r):
        pr = physical_parameters(0.05, 0.5, r)
        rng = np.random.default_rng(80 + r)
        xs = np.linspace(0.0, math.pi, 7, endpoint=False) + 0.05
        for family, case, sectors in (
                (ModelFamily.ELLIPTIC, cli.sample_str_case(rng, pr),
                 np.arange(r)),
                (ModelFamily.Q_LIMIT, cli.sample_rinfstr_case(rng, pr),
                 np.array([int(rng.integers(-3, 4))]))):
            crossed = [pr.eta.real - a for a in case["alphas"]]
            stacked = models.star_integrand(
                family, Spin(xs, sectors[:, None]), case["spins"], crossed,
                pr).sum(axis=0)
            scalars = [self.scalar_integrand(family, float(x), sectors,
                                             case["spins"], crossed, pr)
                       for x in xs]
            for got, want in zip(stacked, scalars):
                assert abs(got - want) <= 1e-13 * abs(want)

    def test_quad_error_reported(self):
        pr = physical_parameters(0.05, 0.5, 2)
        rng = np.random.default_rng(90)
        s = cli.sample_str_case(rng, pr)
        ri = cli.sample_rinfstr_case(rng, physical_parameters(0.05, 0.5, 1))
        ic = cli.sample_iconst_case(rng, pr)
        reports = [
            verify.verify_star_triangles(
                ModelFamily.ELLIPTIC, [(s["spins"], s["alphas"])], pr)[0],
            verify.verify_star_triangles(
                ModelFamily.Q_LIMIT, [(ri["spins"], ri["alphas"])],
                physical_parameters(0.05, 0.5, 1))[0],
            verify.verify_masters([cli.sample_master_case(rng, pr)["mp"]])[0],
            verify.verify_I_constants([(ic["t"], ic["u"])], pr)[0]]
        for rep in reports:
            meta = rep.numerics_meta
            assert 0.0 <= meta["quad_error"] <= meta["quad_tol"]


class TestPoleDiagnostics:
    def test_uniform_heights(self):
        pr = physical_parameters(0.05, 0.5, 2)
        h = (2j * pr.eta).imag / 6
        t = tuple(complex(0.1 * k, h) for k in range(-2, 3))
        assert verify.pole_diagnostics(t, pr) == pytest.approx(h)

    def test_thin_margin_tracks_t(self):
        pr = physical_parameters(0.05, 0.5, 2)
        h = (2j * pr.eta).imag / 6
        t = (complex(0.1, 1e-4),) + tuple(complex(0.1 * k, h) for k in range(4))
        assert verify.pole_diagnostics(t, pr) == pytest.approx(1e-4)

    def test_large_im_a_unsafe(self):
        pr = physical_parameters(0.05, 0.5, 2)
        span = (2j * pr.eta).imag
        t = tuple(complex(0.1 * k, 0.45 * span) for k in range(-2, 3))
        assert verify.pole_diagnostics(t, pr) <= 0.0

    def test_accepts_master_parameters(self):
        pr = physical_parameters(0.05, 0.5, 1)
        t = tuple(2j * pr.eta / 6 + dx for dx in (0.1, -0.1, 0.2, -0.2, 0.3, -0.3))
        mp = verify.MasterParameters(t, (0,) * 6, pr)
        assert verify.pole_diagnostics(mp.t[:5], mp.params) > 0

    def test_matches_deeper_enumeration(self):
        # random nomes in the upper half plane and random (t, u), including
        # configurations whose margin is negative
        rng = np.random.default_rng(77)
        for _ in range(300):
            r = int(rng.integers(1, 6))
            sigma = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.8))
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.8))
            pr = NomeParameters(sigma, tau, r)
            span = (2j * pr.eta).imag
            t = tuple(complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.6) * span)
                      for _ in range(5))
            u = tuple(int(v) for v in rng.integers(-3 * r, 3 * r + 1, 5))
            assert verify.pole_diagnostics(t, pr) == pole_margin_enumerated(
                t, u, pr)


class TestBrackets:
    def test_full_sweep(self):
        rep = verify.verify_bracket_identities(64)
        assert rep.passed
        assert rep.numerics_meta["failures"] == []
        assert rep.numerics_meta["cases_checked"] == sum(
            6 * r + 1 for r in range(1, 65))

    def test_spot_example(self):
        # [[-m]] + [[m-1]] = r-1 at m=0, r=3
        import lenstri.special_functions as sf
        assert sf.mod_bracket(0, 3) + sf.mod_bracket(-1, 3) == 2


class TestLimits:
    def test_r_to_inf(self):
        pr = physical_parameters(0.05, 0.5, 1)
        rep = verify.verify_limit_r_to_inf(0.3, 1, pr)
        assert rep.passed
        errs = rep.numerics_meta["errors"]
        assert errs[-1] <= errs[0]

    def test_r_to_inf_negative_index(self):
        pr = physical_parameters(0.05, 0.5, 1)
        rep = verify.verify_limit_r_to_inf(0.3, -2, pr)
        assert rep.passed

    def test_hbar(self):
        rep = verify.verify_limit_hbar(0.4, 1.0, 0)
        assert rep.passed
        for key in ("dev_q", "dev_kappa", "dev_single_spin"):
            seq = rep.numerics_meta[key]
            assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_hbar_nonzero_m(self):
        rep = verify.verify_limit_hbar(0.3, 0.8, 2)
        assert rep.passed


class TestInversionAndBridge:
    @pytest.mark.parametrize("family", [ModelFamily.ELLIPTIC,
                                        ModelFamily.Q_LIMIT,
                                        ModelFamily.GAMMA_LIMIT])
    def test_first_inversion(self, family):
        pr = physical_parameters(0.05, 0.5, 2)
        spins = (Spin(0.7, 1), Spin(1.9, 0))
        rep = verify.verify_inversions([(family, 0.35, spins)], pr)[0]
        assert rep.passed, rep.rel_residual

    def test_bridge_residual_recorded(self):
        pr = physical_parameters(0.05, 0.5, 2)
        rep = verify.verify_gamma_phi_bridge(0.37 + 0.21j, 1, pr)
        assert rep.rel_residual <= 1e-10

    def test_bridge_stable_under_half_period(self):
        pr = physical_parameters(0.05, 0.5, 2)
        r1 = verify.verify_gamma_phi_bridge(0.37 + 0.21j, 1, pr)
        r2 = verify.verify_gamma_phi_bridge(0.37 + math.pi + 0.21j, 1, pr)
        assert r1.rel_residual <= 1e-10 and r2.rel_residual <= 1e-10


class TestChangeOfVariables:
    @pytest.mark.parametrize("r", [1, 2])
    def test_lhs_and_rhs_reproduced(self, r):
        pr = physical_parameters(0.05, 0.5, r)
        eta = pr.eta.real
        spins = (Spin(0.7, 0), Spin(1.6, r // 2), Spin(2.5, 0))
        alphas = (0.28 * eta, 0.33 * eta, 0.39 * eta)
        rep = verify.verify_cov_consistency(spins, alphas, pr)
        assert rep.passed
        assert rep.numerics_meta["lhs_residual"] <= 1e-8
        assert rep.numerics_meta["rhs_residual"] <= 1e-8
