"""Numerical checkers for every identity of the model family: the three
star-triangle relations, the master summation/integration identity and its
constant form, the theta-function difference equation, bracket identities,
limit consistency, and pole-distance diagnostics for the integration contour.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import models, numerics
from . import special_functions as sf
from .models import ModelFamily, Spin
from .params import (
    DEFAULT_POLICY,
    ContourViolationError,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    TruncationPolicy,
)

#: minimum pole-to-contour margin, as a fraction of eta, below which
#: master-identity integrals are rejected instead of attempted
CONTOUR_MARGIN_FRACTION = 0.05


@dataclass
class VerificationReport:
    identity_name: str
    parameter_record: dict
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    tolerance: float
    #: named pass conditions, in the order they were declared
    checks: dict = field(default_factory=dict)
    numerics_meta: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def make_report(name: str, record: dict, lhs: complex, rhs: complex,
                tol: float, meta: Optional[dict] = None, seed: int = 0,
                checks: Optional[dict] = None,
                residual: bool = True) -> VerificationReport:
    """Report comparing lhs with rhs.  Its checks are ``residual`` (the
    relative residual within tol, or the absolute one when |rhs| < 1e-10),
    left out when ``residual`` is false, followed by the verifier's own
    ``checks``."""
    lhs, rhs = complex(lhs), complex(rhs)
    abs_res = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs))
    rel_res = abs_res / denom if denom > 0 else abs_res
    if residual:
        ok = (abs_res <= tol) if abs(rhs) < 1e-10 else (rel_res <= tol)
        checks = {"residual": ok, **(checks or {})}
    return VerificationReport(name, record, lhs, rhs, abs_res, rel_res,
                              tol, checks or {}, meta or {}, seed)


def _converged(res):
    """A quadrature result, which must have converged."""
    if not res.converged:
        raise NonConvergenceError(
            f"quadrature not converged after {res.nodes_used} nodes "
            f"(error estimate {res.error_estimate:.2e})")
    return res


@dataclass(frozen=True)
class MasterParameters:
    """Six complex t and six integer u with sum(t) = 2i*eta, sum(u) = 0."""
    t: tuple
    u: tuple
    params: NomeParameters

    def __post_init__(self):
        if len(self.t) != 6 or len(self.u) != 6:
            raise InvalidParameterError("master identity needs six t and six u")
        if abs(sum(self.t) - 2j * self.params.eta) > 1e-12:
            raise InvalidParameterError(
                f"sum(t) must equal 2i*eta (off by {abs(sum(self.t) - 2j*self.params.eta):.2e})")
        if sum(self.u) != 0:
            raise InvalidParameterError("sum(u) must be zero")
        if any(ti.imag <= 0 for ti in self.t):
            raise InvalidParameterError("all Im(t_i) must be positive")


def _check_alphas(alphas: Sequence[float], eta: float):
    if abs(sum(alphas) - eta) > 1e-12:
        raise InvalidParameterError(
            f"spectral parameters must sum to eta={eta} (got {sum(alphas)})")
    if any(not (0 < a < eta) for a in alphas):
        raise InvalidParameterError("each alpha must lie in (0, eta)")


# ---------------------------------------------------------------------------
# star-triangle relations


def verify_str(spins: Sequence[Spin], alphas: Sequence[float],
               params: NomeParameters, tol: float = 1e-6,
               policy: TruncationPolicy = DEFAULT_POLICY,
               quad_tol: Optional[float] = None,
               seed: int = 0) -> VerificationReport:
    """Star-triangle relation of the elliptic model.

    LHS: sum over the center spin's integer part and integral of its angle
    over [0, pi) of S(s0) W_{eta-ai}(si,s0) W_{eta-aj}(sj,s0) W_{eta-ak}(sk,s0).
    RHS: W_{ai}(sj,sk) W_{aj}(si,sk) W_{ak}(sj,si).
    """
    t0 = time.perf_counter()
    eta = params.eta.real
    _check_alphas(alphas, eta)
    for s in spins:
        models.check_spin_domain(s, ModelFamily.ELLIPTIC, params.r)
    si, sj, sk = spins
    ai, aj, ak = alphas
    rhs = (models.weight_elliptic(ai, sj, sk, params, policy)
           * models.weight_elliptic(aj, si, sk, params, policy)
           * models.weight_elliptic(ak, sj, si, params, policy))
    qtol = quad_tol if quad_tol is not None else tol / 10
    # the integrator's tolerance is absolute for small values; tie it to
    # the scale of the identity so the relative residual is meaningful
    qtol *= min(1.0, max(abs(rhs), 1e-12))

    lhs = 0.0 + 0.0j
    nodes = 0
    for m0 in range(params.r // 2 + 1):
        def f(x0, m0=m0):
            s0 = Spin(x0, m0)
            # the theta-product form of S tolerates its genuine zeros on
            # the contour (the gamma form's pole guard would reject them)
            return (models.single_spin_elliptic(s0, params, policy,
                                                via_theta4=True)
                    * models.weight_elliptic(eta - ai, si, s0, params, policy)
                    * models.weight_elliptic(eta - aj, sj, s0, params, policy)
                    * models.weight_elliptic(eta - ak, sk, s0, params, policy))
        res = _converged(numerics.periodic_integrate(f, math.pi, qtol,
                                                     vectorized=True))
        lhs += res.value
        nodes += res.nodes_used
    meta = {"nodes": nodes, "quad_tol": qtol,
            "term_epsilon": policy.term_epsilon,
            "runtime": time.perf_counter() - t0}
    record = {"spins": [(s.x, s.m) for s in spins], "alphas": list(alphas),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("str", record, lhs, rhs, tol, meta, seed)


def verify_rinfstr(spins: Sequence[Spin], alphas: Sequence[float],
                   params: NomeParameters, tol: float = 1e-6,
                   policy: TruncationPolicy = DEFAULT_POLICY,
                   quad_tol: Optional[float] = None,
                   seed: int = 0) -> VerificationReport:
    """Star-triangle relation of the q-product (r->infinity) model; the
    center integer spin runs over all of Z with exponentially decaying terms.
    """
    t0 = time.perf_counter()
    eta = params.eta.real
    _check_alphas(alphas, eta)
    si, sj, sk = spins
    ai, aj, ak = alphas
    rhs = (models.weight_qlimit(ai, sj, sk, params, policy)
           * models.weight_qlimit(aj, si, sk, params, policy)
           * models.weight_qlimit(ak, sj, si, params, policy))
    qtol = quad_tol if quad_tol is not None else tol / 10
    qtol *= min(1.0, max(abs(rhs), 1e-12))
    nodes = [0]

    def term(m0: int) -> complex:
        def f(x0):
            s0 = Spin(x0, m0)
            return (models.single_spin_qlimit(s0, params, policy)
                    * models.weight_qlimit(eta - ai, si, s0, params, policy)
                    * models.weight_qlimit(eta - aj, sj, s0, params, policy)
                    * models.weight_qlimit(eta - ak, sk, s0, params, policy))
        res = _converged(numerics.periodic_integrate(f, math.pi, qtol,
                                                     vectorized=True))
        nodes[0] += res.nodes_used
        return res.value

    sres = numerics.bilateral_sum(term, qtol)
    meta = {"nodes": nodes[0], "m_terms": sres.terms_used,
            "tail_bound": sres.tail_bound, "quad_tol": qtol,
            "runtime": time.perf_counter() - t0}
    record = {"spins": [(s.x, s.m) for s in spins], "alphas": list(alphas),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("rinfstr", record, sres.value, rhs, tol, meta, seed)


def verify_strmsg(spins: Sequence[Spin], alphas: Sequence[float],
                  tol: float = 1e-4, quad_tol: Optional[float] = None,
                  initial_cutoff: float = 16.0,
                  seed: int = 0) -> VerificationReport:
    """Star-triangle relation of the Euler-gamma model (eta = 1).

    The center angle is integrated over the whole real line; both the
    integral and the integer sum decay only like a power law and use
    fitted tail corrections.
    """
    t0 = time.perf_counter()
    _check_alphas(alphas, 1.0)
    si, sj, sk = spins
    ai, aj, ak = alphas
    rhs = (models.weight_gamma(ai, sj, sk)
           * models.weight_gamma(aj, si, sk)
           * models.weight_gamma(ak, sj, si))
    qtol = quad_tol if quad_tol is not None else tol / 10
    qtol *= min(1.0, max(abs(rhs), 1e-12))
    nodes = [0]

    def term(m0: int) -> complex:
        def f(x0):
            s0 = Spin(x0, m0)
            return (models.single_spin_gamma(s0)
                    * models.weight_gamma(1 - ai, si, s0)
                    * models.weight_gamma(1 - aj, sj, s0)
                    * models.weight_gamma(1 - ak, sk, s0))
        res = _converged(numerics.line_integrate(
            f, qtol, tail_exponent_hint=-2.0, initial_cutoff=initial_cutoff,
            vectorized=True))
        nodes[0] += res.nodes_used
        return res.value

    sres = numerics.bilateral_sum(term, qtol, tail_exponent_hint=-2.0)
    meta = {"nodes": nodes[0], "m_terms": sres.terms_used,
            "tail_bound": sres.tail_bound, "quad_tol": qtol,
            "runtime": time.perf_counter() - t0}
    record = {"spins": [(s.x, s.m) for s in spins], "alphas": list(alphas)}
    return make_report("strmsg", record, sres.value, rhs, tol, meta, seed)


# ---------------------------------------------------------------------------
# master identity and its constant form


def _G(z, m, params, policy, allow_zero=False):
    return sf.lens_gamma_appendix(z, m, params, policy, allow_zero=allow_zero)


def pole_diagnostics(t, u=None,
                     params: Optional[NomeParameters] = None) -> float:
    """Minimum distance of the integrand's pole lattice from the real axis.

    The upper and lower pole families of the constant-form integrand (five
    t variables plus the derived A = sum t) sit at heights
    Im t_i + pi Im sigma (r j + b) + Im(2i eta) k,
    Im t_i + pi Im tau (r (j+1) - b) + Im(2i eta) k and
    -Im A + pi Im sigma (r (j+1) - b) + Im(2i eta) (k+1),
    -Im A + pi Im tau (r j + b) + Im(2i eta) (k+1),
    with b = [[u_i -+ y]] or [[U +- y]].  With Im sigma > 0 and Im tau > 0
    every height grows in j, k >= 0, and as y runs over 0..r-1 the bracket b
    takes every residue, so the lowest heights are min_i Im t_i and
    Im(2i eta) - Im A; u does not enter.  A positive return means the real
    contour safely separates the two families; non-positive means contour
    violation.  Accepts either a MasterParameters record (the sixth
    variable is the derived one) or explicit five-element t, u plus params.
    """
    if isinstance(t, MasterParameters):
        t, params = t.t[:5], t.params
    im2eta = math.pi * (params.sigma.imag + params.tau.imag)
    return min(min(ti.imag for ti in t), im2eta - sum(t).imag)


def _require_safe_contour(t, u, params):
    margin = pole_diagnostics(t, u, params)
    limit = CONTOUR_MARGIN_FRACTION * abs(params.eta)
    if margin < limit:
        raise ContourViolationError(
            f"pole margin {margin:.3e} below {limit:.3e}; contour rejected")
    return margin


def verify_master(mp: MasterParameters, tol: float = 1e-6,
                  policy: TruncationPolicy = DEFAULT_POLICY,
                  quad_tol: Optional[float] = None,
                  seed: int = 0) -> VerificationReport:
    """Master summation/integration identity:

    (q^r;q^r) (p^r;p^r) sum_y int_0^{2pi} dz/(4pi)
        prod_i Gamma(t_i +- z, u_i +- y) / Gamma(+-2z, +-2y)
      = prod_{i<j} Gamma(t_i + t_j, u_i + u_j).

    1/Gamma factors are evaluated through the inversion relation so the
    integrand stays pole-free on the real contour.
    """
    t0 = time.perf_counter()
    params = mp.params
    t, u = mp.t, mp.u
    margin = _require_safe_contour(t[:5], u[:5], params)
    r = params.r
    p, q = params.p, params.q
    i2eta = 2j * params.eta
    pref = (sf.qpochhammer_inf(q ** r, q ** r, policy)
            * sf.qpochhammer_inf(p ** r, p ** r, policy))
    qtol = quad_tol if quad_tol is not None else tol / 10

    lhs = 0.0 + 0.0j
    nodes = 0
    for y in range(r):
        def f(z, y=y):
            # 1/Gamma(+-2z, +-2y) through the inversion relation; the
            # inverted factors vanish where the original ones blow up
            acc = (_G(i2eta - 2 * z, -2 * y, params, policy, allow_zero=True)
                   * _G(i2eta + 2 * z, 2 * y, params, policy, allow_zero=True))
            for ti, ui in zip(t, u):
                acc *= (_G(ti + z, ui + y, params, policy)
                        * _G(ti - z, ui - y, params, policy))
            return acc
        res = _converged(numerics.periodic_integrate(f, 2 * math.pi, qtol,
                                                     vectorized=True))
        lhs += res.value
        nodes += res.nodes_used
    lhs *= pref / (4 * math.pi)

    rhs = 1.0 + 0.0j
    for i in range(6):
        for j in range(i + 1, 6):
            rhs *= _G(t[i] + t[j], u[i] + u[j], params, policy)
    meta = {"nodes": nodes, "pole_margin": margin, "quad_tol": qtol,
            "runtime": time.perf_counter() - t0}
    record = {"t": list(t), "u": list(u),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("master", record, lhs, rhs, tol, meta, seed)


def rho_integrand(z: complex, y: int, t: Sequence[complex], u: Sequence[int],
                  params: NomeParameters,
                  policy: TruncationPolicy = DEFAULT_POLICY,
                  const: Optional[complex] = None) -> complex:
    """Constant-form integrand rho(z, y; t_1..t_5, u_1..u_5), at a scalar
    or at each element of an array z.

    const, if given, is the precomputed z-independent factor
    prod_i Gamma(A - t_i, U - u_i) / prod_{i<j} Gamma(t_i + t_j, u_i + u_j).
    """
    A, U = sum(t), sum(u)
    i2eta = 2j * params.eta
    if const is None:
        const = rho_constant(t, u, params, policy)
    acc = const
    acc *= (_G(i2eta - 2 * z, -2 * y, params, policy, allow_zero=True)
            * _G(i2eta + 2 * z, 2 * y, params, policy, allow_zero=True))
    acc *= (_G(i2eta - A - z, -U - y, params, policy, allow_zero=True)
            * _G(i2eta - A + z, -U + y, params, policy, allow_zero=True))
    for ti, ui in zip(t, u):
        acc *= (_G(ti + z, ui + y, params, policy)
                * _G(ti - z, ui - y, params, policy))
    return acc


def rho_constant(t, u, params, policy=DEFAULT_POLICY) -> complex:
    A, U = sum(t), sum(u)
    acc = 1.0 + 0.0j
    for ti, ui in zip(t, u):
        acc *= _G(A - ti, U - ui, params, policy)
    for i in range(5):
        for j in range(i + 1, 5):
            acc /= _G(t[i] + t[j], u[i] + u[j], params, policy)
    return acc


def _master_I(t, u, params, policy, qtol):
    nodes = 0
    const = rho_constant(t, u, params, policy)
    total = 0.0 + 0.0j
    for y in range(params.r):
        res = _converged(numerics.periodic_integrate(
            lambda z, y=y: rho_integrand(z, y, t, u, params, policy, const),
            2 * math.pi, qtol, vectorized=True))
        total += res.value
        nodes += res.nodes_used
    return total, nodes


def verify_I_constant(t: Sequence[complex], u: Sequence[int],
                      params: NomeParameters, tol: float = 1e-6,
                      shift_tol: float = 1e-7,
                      policy: TruncationPolicy = DEFAULT_POLICY,
                      quad_tol: Optional[float] = None,
                      seed: int = 0) -> VerificationReport:
    """Constant form of the master identity:
    I(t_1..t_5, u_1..u_5) = 4 pi / ((q^r;q^r) (p^r;p^r)),
    plus invariance of I under t_1 -> t_1 + pi sigma, u_1 -> u_1 - 1.
    """
    t0 = time.perf_counter()
    if len(t) != 5 or len(u) != 5:
        raise InvalidParameterError("constant form takes five t and five u")
    ts = (t[0] + math.pi * params.sigma,) + tuple(t[1:])
    us = (u[0] - 1,) + tuple(u[1:])
    for tt in (t, ts):
        if abs(sum(tt).imag) >= abs((2j * params.eta).imag):
            raise InvalidParameterError(
                "|Im(A)| must stay below |Im(2i eta)|, also after the shift")
    margin = min(_require_safe_contour(t, u, params),
                 _require_safe_contour(ts, us, params))
    r = params.r
    p, q = params.p, params.q
    qtol = quad_tol if quad_tol is not None else tol / 10
    I0, nodes0 = _master_I(tuple(t), tuple(u), params, policy, qtol)
    rhs = 4 * math.pi / (sf.qpochhammer_inf(q ** r, q ** r, policy)
                         * sf.qpochhammer_inf(p ** r, p ** r, policy))
    I1, nodes1 = _master_I(ts, us, params, policy, min(qtol, shift_tol / 10))
    shift_res = abs(I1 - I0) / max(abs(I0), abs(I1))
    meta = {"nodes": nodes0 + nodes1, "pole_margin": margin,
            "shift_residual": shift_res, "shift_tolerance": shift_tol,
            "quad_tol": qtol, "runtime": time.perf_counter() - t0}
    record = {"t": list(t), "u": list(u),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("iconst", record, I0, rhs, tol, meta, seed,
                       checks={"shift_invariance": shift_res <= shift_tol})


# ---------------------------------------------------------------------------
# theta difference equation


def theta_difference_sides(z: complex, y: int, t: Sequence[complex],
                           u: Sequence[int], params: NomeParameters,
                           policy: TruncationPolicy = DEFAULT_POLICY):
    """Both sides of the theta-function difference identity behind the
    telescoping step of the master-identity proof.  Each side evaluates all
    of its lens theta functions in one batched call."""
    r = params.r
    A, U = sum(t), sum(u)
    tv, uv = np.array(t, complex), np.array(u)

    def th(*pairs):
        zs, ms = zip(*pairs)
        return sf.lens_theta(np.concatenate(zs), np.concatenate(ms),
                             params, policy)

    # theta(t_0 + t_i), i >= 1, divides both sides
    pair = (tv[0] + tv[1:], uv[0] + uv[1:])
    v = th(pair, ([tv[0] + z, tv[0] - z, A + z, A - z],
                  [uv[0] + y, uv[0] - y, U + y, U - y]),
           (A - tv[1:], U - uv[1:]))
    lhs = v[4] * v[5] / (v[6] * v[7]) * v[8:].prod() / v[:4].prod() - 1.0

    v = th(pair, ([tv[0] + A], [uv[0] + U]), (tv + z, uv + y), (tv - z, uv - y),
           ([2 * z, A + z, -2 * z, A - z], [2 * y, U + y, -2 * y, U - y]))
    pref = -cmath.exp(1j * t[0] / r) * v[4] / v[:4].prod()
    term_p = (cmath.exp(-1j * z / r + 2j * math.pi * sf.mod_bracket(y - u[0], r) / r)
              * v[5:10].prod() / (v[15] * v[16]))
    term_m = (cmath.exp(1j * z / r)
              * cmath.exp(2j * math.pi * (sf.mod_bracket(y - u[0] + 1, r)
                                          + sf.mod_bracket(-2 * y - 1, r)) / r)
              * v[10:15].prod() / (v[17] * v[18]))
    rhs = pref * (term_p + term_m)
    return complex(lhs), complex(rhs)


def verify_theta_difference(z: complex, y: int, t: Sequence[complex],
                            u: Sequence[int], params: NomeParameters,
                            tol: float = 1e-8,
                            policy: TruncationPolicy = DEFAULT_POLICY,
                            seed: int = 0) -> VerificationReport:
    """Difference identity for the lens theta functions, plus invariance of
    each side under z -> z + pi tau r."""
    t0 = time.perf_counter()
    lhs, rhs = theta_difference_sides(z, y, t, u, params, policy)
    shift = math.pi * params.tau * params.r
    lhs_s, rhs_s = theta_difference_sides(z + shift, y, t, u, params, policy)
    inv_l = abs(lhs_s - lhs) / max(1.0, abs(lhs))
    inv_r = abs(rhs_s - rhs) / max(1.0, abs(rhs))
    # at this point the first term of each side carries an exact theta zero
    # and both sides collapse to -1
    z_star = -t[0] - math.pi * params.tau * sf.mod_bracket(-u[0] - y, params.r)
    lhs_p, rhs_p = theta_difference_sides(z_star, y, t, u, params, policy)
    meta = {"period_shift_residual_lhs": inv_l,
            "period_shift_residual_rhs": inv_r,
            "near_pole_lhs": lhs_p, "near_pole_rhs": rhs_p,
            "runtime": time.perf_counter() - t0}
    record = {"z": z, "y": y, "t": list(t), "u": list(u),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("thtfunct", record, lhs, rhs, tol, meta, seed,
                       checks={"period_shift_lhs": inv_l <= tol,
                               "period_shift_rhs": inv_r <= tol})


# ---------------------------------------------------------------------------
# bridges, brackets, limits, inversions


def verify_gamma_phi_bridge(z: complex, m: int, params: NomeParameters,
                            tol: float = 1e-10,
                            policy: TruncationPolicy = DEFAULT_POLICY,
                            seed: int = 0) -> VerificationReport:
    """Diagnostic bridge between the two lens gamma conventions:
    Phi_{r,m}(z) against e^{-varphi(w,m)} Gamma(w,m) at w = -2z + 2i eta
    with doubled modular parameters (squared nomes).  Recorded, never an
    acceptance gate.
    """
    t0 = time.perf_counter()
    dbl = params.doubled()
    w = -2 * z + 2j * params.eta
    lhs = sf.lens_elliptic_gamma(z, m, params, policy)
    rhs = cmath.exp(-sf.varphi(w, m, dbl)) * sf.lens_gamma_appendix(w, m, dbl, policy)
    meta = {"runtime": time.perf_counter() - t0}
    record = {"z": z, "m": m, "sigma": params.sigma, "tau": params.tau,
              "r": params.r}
    return make_report("gamma_phi_bridge", record, lhs, rhs, tol, meta, seed)


def _bracket_floor(m: int, r: int) -> int:
    # independent oracle: representative via floored division
    return m - r * math.floor(m / r)


def verify_bracket_identities(r_max: int = 64, seed: int = 0) -> VerificationReport:
    """All six modular-bracket identities, exact integer arithmetic, for
    r in [1, r_max] and m in [-3r, 3r]."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for r in range(1, r_max + 1):
        for m in range(-3 * r, 3 * r + 1):
            b = sf.mod_bracket(m, r)
            if b != _bracket_floor(m, r):
                failures.append(("oracle", r, m))
            bm = sf.mod_bracket(-m, r)
            pm = sf.bracket_pm(m, r)
            pm_prev = sf.bracket_pm(m - 1, r)
            pm_next = sf.bracket_pm(m + 1, r)
            checks = [
                pm == sf.bracket_pm(-m, r),
                bm + sf.mod_bracket(m - 1, r) == r - 1,
                pm_prev - pm + 2 * bm == r - 1,
                pm_next - pm + 2 * b == r - 1,
                ((2 * b - r) * pm - (2 * sf.mod_bracket(m - 1, r) - r) * pm_prev
                 == -(r - 1) * (r - 2) - 6 * bm + 6 * pm),
                ((2 * b - r) * pm - (2 * sf.mod_bracket(m + 1, r) - r) * pm_next
                 == (r - 1) * (r - 2) + 6 * b - 6 * sf.bracket_pm(-m, r)),
            ]
            checked += 1
            for idx, ok in enumerate(checks, 1):
                if not ok:
                    failures.append((idx, r, m))
    meta = {"cases_checked": checked, "failures": failures,
            "runtime": time.perf_counter() - t0}
    # lhs and rhs record the failure count against zero
    return make_report("brackets", {"r_max": r_max}, len(failures), 0.0,
                       0.0, meta, seed, checks={"no_failures": not failures},
                       residual=False)


def verify_limit_r_to_inf(z: complex, n: int, params: NomeParameters,
                          r_list: Sequence[int] = (4, 8, 16, 32),
                          policy: TruncationPolicy = DEFAULT_POLICY,
                          seed: int = 0) -> VerificationReport:
    """|Phi_{r,n}(z) - Q(z,n)| strictly decreasing along r_list (a
    non-increase within 1e-14 absolute counts as a decrease).  The nomes
    of params are kept fixed; its own r is ignored."""
    t0 = time.perf_counter()
    sigma, tau = params.sigma, params.tau
    errs = []
    for r in r_list:
        pr = NomeParameters(sigma, tau, r)
        errs.append(abs(sf.lens_elliptic_gamma(z, n, pr, policy)
                        - models.q_function(z, n, pr, policy)))
    decreasing = all(b <= a + 1e-14 for a, b in zip(errs, errs[1:]))
    meta = {"errors": errs, "runtime": time.perf_counter() - t0}
    record = {"z": z, "n": n, "sigma": sigma, "tau": tau, "r_list": list(r_list)}
    return make_report("limit_r_to_inf", record, errs[-1], 0.0,
                       max(errs[0], 1e-12), meta, seed,
                       checks={"monotone_decrease":
                               decreasing and errs[-1] <= errs[0] + 1e-14},
                       residual=False)


def verify_limit_hbar(alpha: float, x: float, m: int,
                      hbar_list: Sequence[float] = (0.2, 0.1, 0.05),
                      policy: TruncationPolicy = DEFAULT_POLICY,
                      seed: int = 0) -> VerificationReport:
    """Euler-gamma asymptotics of Q, kappa, and the single-spin weight as
    the nomes approach 1 (p = q = e^{-hbar}): all three ratio deviations
    must shrink strictly along hbar_list."""
    from scipy.special import gamma as _gamma
    t0 = time.perf_counter()
    dev_q, dev_k, dev_s = [], [], []
    for hb in hbar_list:
        pr = NomeParameters(1j * hb / math.pi, 1j * hb / math.pi, 1)
        qv = models.q_function(hb * x, m, pr, policy)
        q_asy = ((4 * hb) ** (1j * x)
                 * _gamma((1 + abs(m) + 1j * x) / 2)
                 / _gamma((1 + abs(m) - 1j * x) / 2))
        dev_q.append(abs(qv / q_asy - 1))
        kv = models.kappa_qlimit(alpha * hb, pr, policy)
        k_asy = ((8 * hb) ** (-alpha)
                 * _gamma((1 - alpha) / 2) / _gamma((1 + alpha) / 2))
        dev_k.append(abs(kv / k_asy - 1))
        sv = models.single_spin_qlimit(Spin(hb * x, m), pr, policy)
        s_asy = (4 * hb) ** 2 * (x * x + m * m) / (2 * math.pi)
        if s_asy != 0:
            dev_s.append(abs(sv / s_asy - 1))
    shrinking = all(
        all(b < a + 1e-14 for a, b in zip(seq, seq[1:]))
        for seq in (dev_q, dev_k, dev_s) if seq)
    meta = {"dev_q": dev_q, "dev_kappa": dev_k, "dev_single_spin": dev_s,
            "runtime": time.perf_counter() - t0}
    record = {"alpha": alpha, "x": x, "m": m, "hbar_list": list(hbar_list)}
    return make_report("limit_hbar", record, dev_q[-1], 0.0,
                       max(dev_q[0], 1e-12), meta, seed,
                       checks={"monotone_decrease": shrinking},
                       residual=False)


def verify_inversion_first(family: ModelFamily, alpha: float,
                           spins: Sequence[Spin],
                           params: Optional[NomeParameters] = None,
                           tol: float = 1e-10,
                           policy: TruncationPolicy = DEFAULT_POLICY,
                           seed: int = 0) -> VerificationReport:
    """First inversion relation W_alpha(si,sj) W_{-alpha}(si,sj) = 1."""
    t0 = time.perf_counter()
    si, sj = spins
    w1 = models.edge_weight(family, alpha, si, sj, params, policy)
    w2 = models.edge_weight(family, -alpha, si, sj, params, policy)
    meta = {"runtime": time.perf_counter() - t0}
    record = {"family": family.value, "alpha": alpha,
              "spins": [(s.x, s.m) for s in spins]}
    if params is not None:
        record.update({"sigma": params.sigma, "tau": params.tau, "r": params.r})
    return make_report("inversion_first", record, w1 * w2, 1.0, tol, meta, seed)


# ---------------------------------------------------------------------------
# change-of-variables consistency between the star-triangle relation and
# the master identity


def cov_master_parameters(spins: Sequence[Spin], alphas: Sequence[float],
                          params: NomeParameters) -> MasterParameters:
    """Master-identity parameters produced by the change of variables that
    specialises the master identity to the star-triangle relation.

    The master side lives at doubled modular parameters (squared nomes);
    angles map to -2x and spectral parameters to 2*alpha.
    """
    si, sj, sk = spins
    a1, a2, a3 = alphas
    t = (-2 * si.x + 2j * a1, 2 * si.x + 2j * a1,
         -2 * sk.x + 2j * a3, 2 * sk.x + 2j * a3,
         -2 * sj.x + 2j * a2, 2 * sj.x + 2j * a2)
    u = (si.m, -si.m, sk.m, -sk.m, sj.m, -sj.m)
    return MasterParameters(t, u, params.doubled())


def cov_conversion_factor(spins: Sequence[Spin], alphas: Sequence[float],
                          params: NomeParameters,
                          policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Exact factor C with RHS_str = C * RHS_master (and likewise for the
    LHS) under the change of variables of cov_master_parameters.

    Collects, per edge, the bracket prefactor and 1/kappa of the elliptic
    weight, the exponential prefactors exchanged by the convention bridge,
    and divides out the kappa-ratio gamma factors that the master side
    carries for each spectral parameter.
    """
    si, sj, sk = spins
    r = params.r
    dbl = params.doubled()
    i2eta = 2j * params.eta
    c = 1.0 + 0.0j
    log_pre = 0.0 + 0.0j
    for al, sa, sb in ((alphas[0], sj, sk), (alphas[1], si, sk),
                       (alphas[2], sj, si)):
        dm, sm = sa.m - sb.m, sa.m + sb.m
        dx, sx = sa.x - sb.x, sa.x + sb.x
        log_pre += -2 * al * (sf.bracket_pm(dm, r) + sf.bracket_pm(sm, r)) / r
        c /= models.kappa_elliptic(al, params, policy)
        c /= sf.lens_elliptic_gamma(1j * (params.eta.real - 2 * al), 0,
                                    params, policy)
        for xx, mm in ((dx, dm), (sx, sm)):
            log_pre -= sf.varphi(-2 * (xx + 1j * al) + i2eta, mm, dbl)
            log_pre -= sf.varphi(-2 * (-xx + 1j * al) + i2eta, -mm, dbl)
    return c * cmath.exp(log_pre)


def verify_cov_consistency(spins: Sequence[Spin], alphas: Sequence[float],
                           params: NomeParameters, tol: float = 1e-8,
                           policy: TruncationPolicy = DEFAULT_POLICY,
                           seed: int = 0) -> VerificationReport:
    """The master identity, specialised by the change of variables, must
    reproduce the star-triangle LHS and RHS separately (not only their
    ratio)."""
    t0 = time.perf_counter()
    mp = cov_master_parameters(spins, alphas, params)
    factor = cov_conversion_factor(spins, alphas, params, policy)
    qt = tol / 30
    rep_str = verify_str(spins, alphas, params, tol, policy, quad_tol=qt)
    rep_master = verify_master(mp, tol, policy, quad_tol=qt)
    lhs_res = (abs(rep_str.lhs - factor * rep_master.lhs)
               / max(abs(rep_str.lhs), abs(factor * rep_master.lhs)))
    rhs_res = (abs(rep_str.rhs - factor * rep_master.rhs)
               / max(abs(rep_str.rhs), abs(factor * rep_master.rhs)))
    meta = {"lhs_residual": lhs_res, "rhs_residual": rhs_res,
            "conversion_factor": factor,
            "runtime": time.perf_counter() - t0}
    record = {"spins": [(s.x, s.m) for s in spins], "alphas": list(alphas),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("cov", record, rep_str.lhs, factor * rep_master.lhs,
                       tol, meta, seed,
                       checks={"lhs_residual": lhs_res <= tol,
                               "rhs_residual": rhs_res <= tol},
                       residual=False)
