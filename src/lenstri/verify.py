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
#: the m-sums of ``verify_rinfstr`` and ``verify_strmsg`` (and the
#: integrals of the latter) aim this far below their quadrature target
SUM_MARGIN = 1e-4


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


def _rhs_edges(spins: Sequence[Spin], alphas: Sequence[float]):
    """(alpha, si, sj) of the three edge weights of a star-triangle right
    side, W_{ai}(sj,sk) W_{aj}(si,sk) W_{ak}(sj,si), as arrays with one
    element per weight, so that one weight call gives all three."""
    def stack(ss):
        return Spin(np.array([s.x for s in ss]), np.array([s.m for s in ss]))
    si, sj, sk = spins
    return np.array(alphas, float), stack((sj, si, sj)), stack((sk, sk, si))


def _star_triangle(family: ModelFamily, spins, alphas, params, tol, policy,
                   quad_tol, seed) -> VerificationReport:
    """Star-triangle relation of the elliptic or the q-limit family.

    LHS: sum over the center spin's integer part m0 and integral of its
    angle over [0, pi) of S(s0) W_{eta-ai}(si,s0) W_{eta-aj}(sj,s0)
    W_{eta-ak}(sk,s0), every m0 on axis 0 of one integrand batch.
    RHS: W_{ai}(sj,sk) W_{aj}(si,sk) W_{ak}(sj,si).

    Elliptic: m0 = 0..r//2.  q-limit: m0 runs over Z, and term(-m) =
    term(m), because W(s, (x, m)) = W(s, (-x, -m)) for every edge and for
    S and the integrand is pi-periodic in x; so m0 = 0..M, each m0 > 0
    weighted 2.  Past m* = max |m_i| the terms fall by rho = e^{-4 eta}
    per step (the edge prefactors give e^{-8 eta |m0|}, S gives
    e^{4 eta |m0|}), so M = m* + k, with k >= 1 the least count for which
    rho^{k+1} / (1 - rho) is within ``SUM_MARGIN`` times the relative
    quadrature target.  The tail past +-M is bounded by pi times the
    largest |row M| at the evaluated nodes, geometric in the ratio of rows
    M and M - 1 there; a ratio >= 1, a bound above the sum's target
    (``SUM_MARGIN`` times the quadrature target) or more than
    policy.max_sum_terms rows raise NonConvergenceError.
    """
    t0 = time.perf_counter()
    eta = params.eta.real
    _check_alphas(alphas, eta)
    for s in spins:
        models.check_spin_domain(s, family, params.r)
    rel = quad_tol if quad_tol is not None else tol / 10
    if not rel > 0:
        raise InvalidParameterError("tol must be positive")
    elliptic = family is ModelFamily.ELLIPTIC
    m0 = np.arange(params.r // 2 + 1)   # the sectors of the elliptic model
    if not elliptic:
        rho = math.exp(-4 * eta)
        k = max(1, math.ceil(math.log(SUM_MARGIN * rel * (1 - rho))
                             / math.log(rho)) - 1)
        m0 = np.arange(max(abs(s.m) for s in spins) + k + 1)
        if m0.size > policy.max_sum_terms:
            raise NonConvergenceError(f"rinfstr m-sum needs {m0.size} terms, "
                                      f"more than {policy.max_sum_terms}")
    rhs = models.edge_weight(family, *_rhs_edges(spins, alphas), params,
                             policy).prod()
    # the integrator's tolerance is absolute for small values; tie it to
    # the scale of the identity so the relative residual is meaningful
    qtol = rel * min(1.0, max(abs(rhs), 1e-12))
    weight = np.where(elliptic | (m0 == 0), 1.0, 2.0)[:, None]
    crossed = [eta - a for a in alphas]
    last = np.zeros(2)   # the largest |row M - 1| and |row M| so far

    def integrand(x0):
        v = models.star_integrand(family, Spin(x0, m0[:, None]), spins,
                                  crossed, params, policy)
        np.maximum(last, np.abs(v[-2:]).max(axis=1), out=last)
        return (weight * v).sum(axis=0)
    res = _converged(numerics.periodic_integrate(integrand, math.pi, qtol,
                                                 vectorized=True))
    meta = {"nodes": res.nodes_used}
    if not elliptic:
        # 2 pi |row M| r / (1 - r), with r = |row M| / |row M - 1|
        prev, top = last.tolist()
        tail = 2 * math.pi * top**2 / (prev - top) if top < prev else math.inf
        if tail > SUM_MARGIN * qtol:
            raise NonConvergenceError(f"rinfstr m-sum tail {tail:.2e} not "
                                      f"within {SUM_MARGIN * qtol:.2e}")
        meta.update(m_terms=m0.size, tail_bound=tail)
    meta.update(quad_tol=qtol, quad_error=res.error_estimate,
                term_epsilon=policy.term_epsilon,
                runtime=time.perf_counter() - t0)
    record = {"spins": [(s.x, s.m) for s in spins], "alphas": list(alphas),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("str" if elliptic else "rinfstr", record, res.value,
                       rhs, tol, meta, seed)


def verify_str(spins: Sequence[Spin], alphas: Sequence[float],
               params: NomeParameters, tol: float = 1e-6,
               policy: TruncationPolicy = DEFAULT_POLICY,
               quad_tol: Optional[float] = None,
               seed: int = 0) -> VerificationReport:
    """Star-triangle relation of the elliptic model (see _star_triangle)."""
    return _star_triangle(ModelFamily.ELLIPTIC, spins, alphas, params, tol,
                          policy, quad_tol, seed)


def verify_rinfstr(spins: Sequence[Spin], alphas: Sequence[float],
                   params: NomeParameters, tol: float = 1e-6,
                   policy: TruncationPolicy = DEFAULT_POLICY,
                   quad_tol: Optional[float] = None,
                   seed: int = 0) -> VerificationReport:
    """Star-triangle relation of the q-product (r->infinity) model, whose
    center integer spin runs over all of Z (see _star_triangle)."""
    return _star_triangle(ModelFamily.Q_LIMIT, spins, alphas, params, tol,
                          policy, quad_tol, seed)


def verify_strmsg(spins: Sequence[Spin], alphas: Sequence[float],
                  tol: float = 1e-4, quad_tol: Optional[float] = None,
                  seed: int = 0) -> VerificationReport:
    """Star-triangle relation of the Euler-gamma model (eta = 1).

    The center angle is integrated over the real line by
    ``numerics.line_integrate`` (the integrand falls like |x|^-6) and its
    integer part m is summed over Z.  term(-m) = term(m), so m >= 0 is
    summed, and past the spins' own integer parts the terms fall like
    |m|^-5: the sum stops at the first such M whose error after the
    Euler-Maclaurin tail of c m^-5 beyond M, estimated as 5 / M times the
    terms at +-M, is within its target.  The integrals and the sum each
    aim at ``SUM_MARGIN`` times the quadrature target, so that their
    errors stay far below it.  A sum that needs more than
    ``DEFAULT_POLICY.max_sum_terms`` terms (m = 0, 1, ...) raises
    NonConvergenceError.
    """
    t0 = time.perf_counter()
    _check_alphas(alphas, 1.0)
    si, sj, sk = spins
    ai, aj, ak = alphas
    rhs = models.weight_gamma(*_rhs_edges(spins, alphas)).prod()
    qtol = quad_tol if quad_tol is not None else tol / 10
    qtol *= min(1.0, max(abs(rhs), 1e-12))
    target = qtol * SUM_MARGIN
    nodes = 0

    def term(m0: int) -> complex:
        nonlocal nodes

        def f(x0):
            s0 = Spin(x0, m0)
            return (models.single_spin_gamma(s0)
                    * models.weight_gamma(1 - ai, si, s0)
                    * models.weight_gamma(1 - aj, sj, s0)
                    * models.weight_gamma(1 - ak, sk, s0))
        res = _converged(numerics.line_integrate(f, target, vectorized=True))
        nodes += res.nodes_used
        return res.value

    # term(-m) = term(m): W(s, (x, m)) = W(s, (-x, -m)) for every edge and
    # for S, and the integral runs over all of x
    m_star = max(abs(s.m) for s in spins)
    cap = DEFAULT_POLICY.max_sum_terms
    value = term(0)
    for m in range(1, cap):
        t = term(m)
        value += 2 * t
        bound = 10 * abs(t) / m
        if m > m_star and bound <= target:
            break
    else:
        raise NonConvergenceError(
            f"strmsg m-sum not within {target:.2e} after {cap} terms")
    # Euler-Maclaurin: sum_{k>m} t (m/k)^5 = t (m/4 - 1/2 + 5/(12 m)) + ...
    value += 2 * t * (m / 4 - 0.5 + 5 / (12 * m))
    meta = {"nodes": nodes, "m_terms": m + 1, "tail_bound": bound,
            "quad_tol": qtol, "runtime": time.perf_counter() - t0}
    record = {"spins": [(s.x, s.m) for s in spins], "alphas": list(alphas)}
    return make_report("strmsg", record, value, rhs, tol, meta, seed)


# ---------------------------------------------------------------------------
# master identity and its constant form


def _G(rows, params, policy):
    """Gamma(z, m) of every row (z, m, allow_zero), rows on axis 0, in one
    batched lens_gamma_appendix call; z may be an array of nodes."""
    z, m, allow_zero = sf.stack_rows(*rows)
    return sf.lens_gamma_appendix(z, m, params, policy, allow_zero=allow_zero)


def pole_diagnostics(t, params: Optional[NomeParameters] = None) -> float:
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
    Im(2i eta) - Im A, whatever the u_i.  A positive return means the real
    contour safely separates the two families; non-positive means contour
    violation.  Accepts either a MasterParameters record (the sixth
    variable is the derived one) or five t values plus params.
    """
    if isinstance(t, MasterParameters):
        t, params = t.t[:5], t.params
    im2eta = math.pi * (params.sigma.imag + params.tau.imag)
    return min(min(ti.imag for ti in t), im2eta - sum(t).imag)


def _require_safe_contour(t, params):
    margin = pole_diagnostics(t, params)
    limit = CONTOUR_MARGIN_FRACTION * abs(params.eta)
    if margin < limit:
        raise ContourViolationError(
            f"pole margin {margin:.3e} below {limit:.3e}; contour rejected")
    return margin


def master_integrand(z: complex, y, mp: MasterParameters,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Master-identity integrand prod_i Gamma(t_i +- z, u_i +- y) /
    Gamma(+-2z, +-2y), at a scalar or at each element of arrays z and y
    that broadcast against each other."""
    i2eta = 2j * mp.params.eta
    # 1/Gamma(+-2z, +-2y) through the inversion relation; the inverted
    # factors vanish where the original ones blow up
    rows = [(i2eta - 2 * z, -2 * y, True), (i2eta + 2 * z, 2 * y, True)]
    for ti, ui in zip(mp.t, mp.u):
        rows += [(ti + z, ui + y, False), (ti - z, ui - y, False)]
    return sf.python_scalar(_G(rows, mp.params, policy).prod(axis=0))


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
    margin = _require_safe_contour(t[:5], params)
    r = params.r
    p, q = params.p, params.q
    pref = (sf.qpochhammer_inf(q ** r, q ** r, policy)
            * sf.qpochhammer_inf(p ** r, p ** r, policy))
    qtol = quad_tol if quad_tol is not None else tol / 10

    # every sector y on axis 0; the sum over y is even in z, because the
    # integrand is invariant under (z, y) -> (-z, -y) and y runs over Z_r
    y = np.arange(r)[:, None]
    res = _converged(numerics.periodic_integrate(
        lambda z: master_integrand(z, y, mp, policy).sum(axis=0),
        2 * math.pi, qtol, vectorized=True, even=True))
    lhs = res.value * (pref / (4 * math.pi))

    rhs = _G([(t[i] + t[j], u[i] + u[j], False)
              for i in range(6) for j in range(i + 1, 6)], params, policy).prod()
    meta = {"nodes": res.nodes_used, "pole_margin": margin, "quad_tol": qtol,
            "quad_error": res.error_estimate,
            "runtime": time.perf_counter() - t0}
    record = {"t": list(t), "u": list(u),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("master", record, lhs, rhs, tol, meta, seed)


def rho_integrand(z: complex, y, t: Sequence[complex], u: Sequence[int],
                  params: NomeParameters,
                  policy: TruncationPolicy = DEFAULT_POLICY,
                  const: Optional[complex] = None) -> complex:
    """Constant-form integrand rho(z, y; t_1..t_5, u_1..u_5), at a scalar
    or at each element of arrays z and y that broadcast against each other.

    const, if given, is the precomputed z-independent factor
    prod_i Gamma(A - t_i, U - u_i) / prod_{i<j} Gamma(t_i + t_j, u_i + u_j).
    """
    A, U = sum(t), sum(u)
    i2eta = 2j * params.eta
    if const is None:
        const = rho_constant(t, u, params, policy)
    rows = [(i2eta - 2 * z, -2 * y, True), (i2eta + 2 * z, 2 * y, True),
            (i2eta - A - z, -U - y, True), (i2eta - A + z, -U + y, True)]
    for ti, ui in zip(t, u):
        rows += [(ti + z, ui + y, False), (ti - z, ui - y, False)]
    return sf.python_scalar(const * _G(rows, params, policy).prod(axis=0))


def rho_constant(t, u, params, policy=DEFAULT_POLICY) -> complex:
    A, U = sum(t), sum(u)
    # prod_i Gamma(A - t_i, U - u_i) over prod_{i<j} Gamma(t_i + t_j, u_i + u_j)
    v = _G([(A - ti, U - ui, False) for ti, ui in zip(t, u)]
           + [(t[i] + t[j], u[i] + u[j], False)
              for i in range(5) for j in range(i + 1, 5)], params, policy)
    return sf.python_scalar(v[:5].prod() / v[5:].prod())


def _master_I(t, u, params, policy, qtol):
    """I(t, u): the integral over one period of sum_y rho(z, y), which is
    even in z, with every sector y on axis 0 of one batch."""
    const = rho_constant(t, u, params, policy)
    y = np.arange(params.r)[:, None]
    return _converged(numerics.periodic_integrate(
        lambda z: rho_integrand(z, y, t, u, params, policy, const).sum(axis=0),
        2 * math.pi, qtol, vectorized=True, even=True))


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
    margin = min(_require_safe_contour(t, params),
                 _require_safe_contour(ts, params))
    r = params.r
    p, q = params.p, params.q
    qtol = quad_tol if quad_tol is not None else tol / 10
    res0 = _master_I(tuple(t), tuple(u), params, policy, qtol)
    rhs = 4 * math.pi / (sf.qpochhammer_inf(q ** r, q ** r, policy)
                         * sf.qpochhammer_inf(p ** r, p ** r, policy))
    res1 = _master_I(ts, us, params, policy, min(qtol, shift_tol / 10))
    I0, I1 = res0.value, res1.value
    shift_res = abs(I1 - I0) / max(abs(I0), abs(I1))
    meta = {"nodes": res0.nodes_used + res1.nodes_used, "pole_margin": margin,
            "shift_residual": shift_res, "shift_tolerance": shift_tol,
            "quad_tol": qtol,
            "quad_error": max(res0.error_estimate, res1.error_estimate),
            "runtime": time.perf_counter() - t0}
    record = {"t": list(t), "u": list(u),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("iconst", record, I0, rhs, tol, meta, seed,
                       checks={"shift_invariance": shift_res <= shift_tol})


# ---------------------------------------------------------------------------
# theta difference equation

#: a failed thtfunct check whose value is at most this many units of
#: roundoff (2^-52) times rhs_cancellation is taken again at
#: RECOMPUTE_DPS digits: the cancellation explains it as rounding
RECOMPUTE_K = 1024
RECOMPUTE_DPS = 30
#: decimal digits of a double, the precision of a verdict not taken again
DOUBLE_DPS = 16


def _theta_arguments(zs, y, t, u):
    """Arguments (x, m) of the lens theta functions of both sides of the
    difference identity, at every point of zs: first the nine that do not
    depend on z, theta(t_0 + t_i) and theta(A - t_i) for i = 1..4 and
    theta(t_0 + A), then fourteen per point, theta(t_i + z),
    theta(t_i - z) for i = 0..4, theta(+-2z) and theta(A +- z).  t is an
    array of complex or of mpmath numbers, u one of integers."""
    A, U = sum(t), sum(u)
    xs = [t[0] + t[1:], A - t[1:], [t[0] + A]]
    ms = [u[0] + u[1:], U - u[1:], [u[0] + U]]
    for z in zs:
        xs += [t + z, t - z, [2 * z, -2 * z, A + z, A - z]]
        ms += [u + y, u - y, [2 * y, -2 * y, U + y, U - y]]
    return np.concatenate(xs), np.concatenate(ms)


def _theta_sides(v, k, z, y, t0, u0, r, exp, pi):
    """lhs, rhs and rhs_cancellation at point k, z, of the lens theta values
    v laid out by _theta_arguments, in the precision of v, exp and pi."""
    c, w = v[:9], v[9 + 14 * k:23 + 14 * k]
    lhs = w[0] * w[5] / (w[12] * w[13]) * c[4:8].prod() / c[:4].prod() - 1
    pref = -exp(1j * t0 / r) * c[8] / c[:4].prod()
    term_p = (exp(-1j * z / r + 2j * pi * sf.mod_bracket(y - u0, r) / r)
              * w[:5].prod() / (w[10] * w[12]))
    term_m = (exp(1j * z / r)
              * exp(2j * pi * (sf.mod_bracket(y - u0 + 1, r)
                               + sf.mod_bracket(-2 * y - 1, r)) / r)
              * w[5:10].prod() / (w[11] * w[13]))
    total = term_p + term_m
    cancellation = ((abs(term_p) + abs(term_m)) / abs(total) if total
                    else math.inf)
    return lhs, pref * total, cancellation


def theta_difference_sides(z, y: int, t: Sequence[complex],
                           u: Sequence[int], params: NomeParameters,
                           policy: TruncationPolicy = DEFAULT_POLICY):
    """Both sides of the theta-function difference identity behind the
    telescoping step of the master-identity proof, and the cancellation of
    the right side's two terms, (|term_p| + |term_m|) / |term_p + term_m|:
    the factor by which their rounding errors grow in the sum.

    z is a point or an array of points.  Every lens theta function of both
    sides, at every point, is one batched call, and the nine that do not
    depend on z are evaluated once.  Returns (lhs, rhs, rhs_cancellation),
    each of the shape of z (Python scalars for a scalar z)."""
    zs = np.asarray(z, complex)
    x, m = _theta_arguments(zs.reshape(-1), y, np.array(t, complex),
                            np.array(u))
    v = sf.lens_theta(x, m, params, policy)
    sides = [_theta_sides(v, k, zk, y, t[0], u[0], params.r, cmath.exp,
                          math.pi)
             for k, zk in enumerate(zs.reshape(-1))]
    return tuple(sf.python_scalar(np.reshape(side, zs.shape))
                 for side in zip(*sides))


def _lens_theta_mp(x, m, params: NomeParameters, mp):
    """lens_theta at each element of the arrays x and m, as mpmath products
    at the working precision of mp (the mpmath module)."""
    r = params.r
    tau = mp.mpc(params.tau)
    q = mp.exp(1j * mp.pi * tau)
    qr = q ** r
    zeta = 1j * mp.pi * (1 + tau / 2 - mp.mpc(params.sigma) / 2)

    def pochhammer(c):
        value = mp.mpc(1)
        while abs(c) >= mp.eps:
            value *= 1 - c
            c *= qr
        return value

    out = np.empty(len(x), object)
    for i, (xi, mi) in enumerate(zip(x, m)):
        brm = sf.mod_bracket(-int(mi), r)
        phi = (zeta * (r - 1) * (r + 1) / 3
               - 1j * mp.pi * (tau + 2) * sf.bracket_pm(int(mi), r)
               - 1j * (xi + mp.pi) * (r - 1 - 2 * brm)) / (2 * r)
        out[i] = (mp.exp(phi) * pochhammer(mp.exp(1j * xi) * q ** brm)
                  * pochhammer(mp.exp(-1j * xi) * q ** (r - brm)))
    return out


def _theta_difference_mp(z: complex, y: int, t: Sequence[complex],
                         u: Sequence[int], params: NomeParameters):
    """lhs, rhs and period_shift_residual_rhs of the difference identity,
    from RECOMPUTE_DPS-digit lens theta products at z and z + pi tau r."""
    import mpmath as mp
    with mp.workdps(RECOMPUTE_DPS):
        tv = np.array([mp.mpc(ti) for ti in t], object)
        zs = [mp.mpc(z), mp.mpc(z) + mp.pi * mp.mpc(params.tau) * params.r]
        x, m = _theta_arguments(zs, y, tv, np.array(u))
        v = _lens_theta_mp(x, m, params, mp)
        (lhs, rhs, _), (_, rhs_s, _) = (
            _theta_sides(v, k, zk, y, tv[0], u[0], params.r, mp.exp, mp.pi)
            for k, zk in enumerate(zs))
        inv_r = abs(rhs_s - rhs) / max(1, abs(rhs))
        return complex(lhs), complex(rhs), float(inv_r)


def verify_theta_difference(z: complex, y: int, t: Sequence[complex],
                            u: Sequence[int], params: NomeParameters,
                            tol: float = 1e-8,
                            policy: TruncationPolicy = DEFAULT_POLICY,
                            seed: int = 0) -> VerificationReport:
    """Difference identity for the lens theta functions, plus invariance of
    each side under z -> z + pi tau r.

    A failed residual or period_shift_rhs check whose value lies within
    RECOMPUTE_K units of roundoff times rhs_cancellation is taken again
    from RECOMPUTE_DPS-digit lens theta products (lhs, rhs and both of
    those checks); numerics_meta.rhs_precision records the digits the
    verdict was taken at."""
    t0 = time.perf_counter()
    shift = math.pi * params.tau * params.r
    # at z_star the first term of each side carries an exact theta zero and
    # both sides collapse to -1
    z_star = -t[0] - math.pi * params.tau * sf.mod_bracket(-u[0] - y, params.r)
    (lhs, lhs_s, lhs_p), (rhs, rhs_s, rhs_p), cancel = theta_difference_sides(
        [z, z + shift, z_star], y, t, u, params, policy)
    inv_l = abs(lhs_s - lhs) / max(1.0, abs(lhs))
    inv_r = abs(rhs_s - rhs) / max(1.0, abs(rhs))
    # the larger cancellation of the two right sides that
    # period_shift_residual_rhs compares: a large value explains a large
    # residual as rounding, not as a wrong special function
    cancellation = float(max(cancel[:2]))
    record = {"z": z, "y": y, "t": list(t), "u": list(u),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}

    def report(lhs, rhs, inv_r, digits):
        meta = {"period_shift_residual_lhs": inv_l,
                "period_shift_residual_rhs": inv_r,
                "rhs_cancellation": cancellation, "rhs_precision": digits,
                "near_pole_lhs": lhs_p, "near_pole_rhs": rhs_p,
                "runtime": time.perf_counter() - t0}
        return make_report("thtfunct", record, lhs, rhs, tol, meta, seed,
                           checks={"period_shift_lhs": inv_l <= tol,
                                   "period_shift_rhs": inv_r <= tol})

    rep = report(lhs, rhs, inv_r, DOUBLE_DPS)
    rounding = RECOMPUTE_K * 2.0 ** -52 * cancellation
    residual = rep.abs_residual if abs(rep.rhs) < 1e-10 else rep.rel_residual
    if ((not rep.checks["residual"] and residual <= rounding)
            or (not rep.checks["period_shift_rhs"] and inv_r <= rounding)):
        rep = report(*_theta_difference_mp(z, y, t, u, params),
                     RECOMPUTE_DPS)
    return rep


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
    # W_alpha and W_{-alpha} in one weight call
    w1, w2 = models.edge_weight(family, np.array([alpha, -alpha]), si, sj,
                                params, policy)
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
