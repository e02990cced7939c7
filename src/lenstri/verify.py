"""Numerical checkers for every identity of the model family: the three
star-triangle relations, the master summation/integration identity and its
constant form, the theta-function difference equation, bracket identities,
limit consistency, and pole-distance diagnostics for the integration contour.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import models, numerics
from . import special_functions as sf
from .models import ModelFamily, Spin
from .params import (
    MAX_SUM_TERMS,
    TERM_EPSILON,
    ContourViolationError,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
)

#: minimum pole-to-contour margin, as a fraction of eta, below which
#: master-identity integrals are rejected instead of attempted
CONTOUR_MARGIN_FRACTION = 0.05
#: the m-sums of rinfstr (``verify_star_triangles``) and ``verify_strmsg``
#: (and the latter's integrals, the rows of its ``numerics.line_integrals``
#: chunks) aim this far below their quadrature target
SUM_MARGIN = 1e-4
#: consecutive m-terms of ``verify_strmsg`` integrated as the rows of one
#: ``numerics.line_integrals``
STRMSG_CHUNK = 16


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

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def make_report(name: str, record: dict, lhs: complex, rhs: complex,
                tol: float, meta: Optional[dict] = None,
                checks: Optional[dict] = None,
                residual: bool = True) -> VerificationReport:
    """Report comparing lhs with rhs.  Its checks are ``residual`` (the
    relative residual within tol, or the absolute one when |rhs| < 1e-10),
    left out when ``residual`` is false, followed by the verifier's own
    ``checks``.  The residuals are formed from the sides as given, so
    sides of more than double precision (mpmath numbers) give their own
    residual; the report holds the sides as Python complex numbers and
    the residuals as floats."""
    abs_res = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs))
    rel_res = float(abs_res / denom if denom > 0 else abs_res)
    abs_res = float(abs_res)
    if residual:
        ok = (abs_res <= tol) if abs(rhs) < 1e-10 else (rel_res <= tol)
        checks = {"residual": ok, **(checks or {})}
    return VerificationReport(name, record, complex(lhs), complex(rhs),
                              abs_res, rel_res, tol, checks or {}, meta or {})


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


def _rhs_edges(spins: Sequence[Spin], alphas):
    """(alpha, si, sj) of the three edge weights of a star-triangle right
    side, W_{ai}(sj,sk) W_{aj}(si,sk) W_{ak}(sj,si), as arrays with one
    element per weight, so that one weight call, or one batch, gives all
    three; of several stars (each spin holding one angle and integer part
    per star, alphas one row per star), one row of three per star."""
    def stack(ss):
        return Spin(np.stack([s.x for s in ss], axis=-1),
                    np.stack([s.m for s in ss], axis=-1))
    si, sj, sk = spins
    return np.array(alphas, float), stack((sj, si, sj)), stack((sk, sk, si))


def verify_star_triangles(family: ModelFamily, cases, params: NomeParameters,
                          tol: float = 1e-6,
                          quad_tol: Optional[float] = None) -> list:
    """Star-triangle relation of the elliptic or the q-limit family at each
    (spins, alphas) of cases; the reports, in case order.

    LHS: sum over the center spin's integer part m0 and integral of its
    angle over [0, pi) of S(s0) W_{eta-ai}(si,s0) W_{eta-aj}(sj,s0)
    W_{eta-ak}(sk,s0), every m0 on an axis of one integrand batch.
    RHS: W_{ai}(sj,sk) W_{aj}(si,sk) W_{ak}(sj,si).

    W(s, (x, m)) = W(s, (-x, -m)) for every edge and for S, and the
    integrand is pi-periodic in x.  Elliptic: every weight depends on m0
    only mod r, so the summand is even under (x0, m0) -> (pi - x0,
    r - m0).  m0 runs over Z_r at multiplicity 1/2 (S~ of
    ``models.centre_weight`` in place of S): a sector with 2 m0 = 0 (mod
    r) is its own mirror, 1/2 being its multiplicity eps(m0), and the
    others pair up m0 <-> r - m0, each pair worth the sector m0 <= r/2 at
    eps = 1.  So the sum over Z_r is the sum over m0 = 0..r//2 at eps(m0),
    and it is even in x0: the quadrature evaluates the mirror half of its
    nodes (``even=True``).  q-limit: m0 runs over Z, and term(-m) =
    term(m); so m0 = 0..M, each m0 > 0 weighted 2.  Past m* = max |m_i|
    the terms fall by rho = e^{-4 eta} per step (the edge prefactors give
    e^{-8 eta |m0|}, S gives e^{4 eta |m0|}), so M = m* + k, with k >= 1
    the least count for which rho^{k+1} / (1 - rho) is within
    ``SUM_MARGIN`` times the relative quadrature target, counted by
    ``special_functions._term_count``.  The tail past +-M is bounded by pi
    times the largest |row M| at the evaluated nodes, geometric in the
    ratio of rows M and M - 1 there; a ratio >= 1, a bound above the sum's
    target (``SUM_MARGIN`` times the quadrature target) or more than
    MAX_SUM_TERMS rows raise NonConvergenceError.  Both need a real eta.

    The instances are verified together (``_star_batch``): each trapezoid
    level is one integrand batch over the instances that have not
    stopped, and each instance stops at its own level.  q-limit instances
    whose m-sums differ in length are batched apart.  Every instance's
    rows are a truncation group of their own, so its report is the one it
    gets alone.  An error raised for one instance is raised for all: a
    caller that wants each instance's own status verifies them one by one.
    """
    if abs(params.eta.imag) > 1e-12:
        raise InvalidParameterError(
            "star-triangle relations need a real eta, Re(sigma + tau) = 0 "
            f"as at tau = -conj(sigma) (got eta = {params.eta:.6g})")
    eta = params.eta.real
    rel = quad_tol if quad_tol is not None else tol / 10
    elliptic = family is ModelFamily.ELLIPTIC
    batches = {}   # the instances of each m-sum length
    for i, (spins, alphas) in enumerate(cases):
        _check_alphas(alphas, eta)
        for s in spins:
            models.check_spin_domain(s, family, params.r)
        if not rel > 0:
            raise InvalidParameterError("tol must be positive")
        sectors = params.r   # Z_r, the sectors of the elliptic sum
        if not elliptic:
            rho = math.exp(-4 * eta)
            m_star = max(abs(s.m) for s in spins)
            # k >= 1: row m* + 1 gives the tail its ratio, and the count
            # adds the rows after it while rho^{k+1} / (1 - rho) is above
            # the target; rows m0 = 0..m* + 1 are used before the count
            k = 1 + sf._term_count(rho * rho / (1 - rho), rho,
                                   SUM_MARGIN * rel, MAX_SUM_TERMS,
                                   m_star + 2, "rinfstr m-sum")
            sectors = m_star + k + 1
        batches.setdefault(sectors, []).append(i)
    reports = [None] * len(cases)
    for sectors, idx in batches.items():
        batch = _star_batch(family, [cases[i] for i in idx],
                            np.arange(sectors), params, tol, rel)
        for i, rep in zip(idx, batch):
            reports[i] = rep
    return reports


def _star_batch(family: ModelFamily, cases, m0: np.ndarray,
                params: NomeParameters, tol: float, rel: float) -> list:
    """The reports of ``verify_star_triangles`` at cases whose centre sums
    run over the same m0, in one ``numerics.Trapezoid`` (``run``): every
    level is one ``models.star_integrand`` batch of the instances that
    have not stopped, the instances on its leading axis, or one per run of
    them whose gamma rows, four per edge, sector and node, stay below
    ``numerics.BATCH_ROWS`` (all of them at the default nomes).  kappa of
    each instance's six spectral parameters alpha_i and eta - alpha_i is
    one evaluation of its series, and the right sides' twelve rows (six of
    num and den in the q-limit at the conjugate nomes) ride in the first
    batch; each right side sets its instance's quadrature tolerance before
    the stop rule first runs."""
    elliptic = family is ModelFamily.ELLIPTIC
    n = len(cases)
    spins = [Spin(np.array([c[0][j].x for c in cases], float),
                  np.array([c[0][j].m for c in cases]))
             for j in range(3)]
    alphas = np.array([c[1] for c in cases], float)
    crossed = params.eta.real - alphas
    kappas = models.kappa(family, np.concatenate([alphas, crossed], axis=1),
                          params, rows=True)
    weight = np.where(elliptic | (m0 == 0), 1.0, 2.0)[:, None]
    # q-limit: the largest |row M - 1| and |row M| so far, for the tail
    last = np.zeros((n, 2))
    steps = numerics.Trapezoid(math.pi, n, even=elliptic)

    def integrand(x, run, first):
        """The m0-summed integrand of the instances run at the nodes x,
        and with first their right sides."""
        stars = [Spin(s.x[run], s.m[run]) for s in spins]
        v = models.star_integrand(
            family, Spin(x, m0[:, None]), stars, crossed[run], params,
            kappas=kappas[run, 3:],
            right_side=(*_rhs_edges(stars, alphas[run]),
                        kappas[run, :3]) if first else None)
        v, h = v if first else (v, [])
        v = np.reshape(v, (len(run), m0.size, -1))
        if not elliptic:
            last[run] = np.maximum(last[run], np.abs(v[:, -2:]).max(axis=-1))
        return (weight * v).sum(axis=1), np.reshape(h, -1).tolist()

    # the integrator's tolerance is absolute for small values; tie it to
    # the scale of the identity so the relative residual is meaningful
    quad_tols = lambda rhs: [rel * min(1.0, max(abs(h), 1e-12)) for h in rhs]

    rhs = steps.run(integrand, quad_tols, 12 * m0.size, 12)
    qtol = quad_tols(rhs)
    reports = []
    for (spins_i, alphas_i), res, h, qt, (prev, top) in zip(
            cases, steps.results, rhs, qtol, last.tolist()):
        _converged(res)
        meta = {"nodes": res.nodes_used}
        if not elliptic:
            # 2 pi |row M| r / (1 - r), with r = |row M| / |row M - 1|
            tail = (2 * math.pi * top**2 / (prev - top) if top < prev
                    else math.inf)
            if tail > SUM_MARGIN * qt:
                raise NonConvergenceError(f"rinfstr m-sum tail {tail:.2e} "
                                          f"not within {SUM_MARGIN * qt:.2e}")
            meta.update(m_terms=m0.size, tail_bound=tail)
        meta.update(quad_tol=qt, quad_error=res.error_estimate,
                    term_epsilon=TERM_EPSILON)
        record = {"spins": [(s.x, s.m) for s in spins_i],
                  "alphas": list(alphas_i), "sigma": params.sigma,
                  "tau": params.tau, "r": params.r}
        reports.append(make_report("str" if elliptic else "rinfstr",
                                   record, res.value, h, tol, meta))
    return reports


def verify_strmsg(spins: Sequence[Spin], alphas: Sequence[float],
                  tol: float = 1e-4,
                  quad_tol: Optional[float] = None) -> VerificationReport:
    """Star-triangle relation of the Euler-gamma model (eta = 1).

    The center angle is integrated over the real line (the integrand falls
    like |x|^-6) and its integer part m is summed over Z.  term(-m) =
    term(m), so m >= 0 is summed, and past the spins' own integer parts
    the terms fall like |m|^-5: the sum stops at the first such M whose
    error after the Euler-Maclaurin tail of c m^-5 beyond M, estimated as
    5 / M times the terms at +-M, is within its target.  The integrals and
    the sum each aim at ``SUM_MARGIN`` times the quadrature target, so
    that their errors stay far below it.  A sum that needs more than
    MAX_SUM_TERMS terms (m = 0, 1, ...) raises NonConvergenceError.

    The integrals of STRMSG_CHUNK consecutive m are the rows of one
    ``numerics.line_integrals``, each level one star_integrand call over
    the rows that have not stopped; each row stops at its own level, and
    gets the term it gets alone wherever its chunk's half-width T is the
    row's own.  Terms past the stop of the sum are integrated but not
    used.
    """
    _check_alphas(alphas, 1.0)
    crossed = [1 - a for a in alphas]
    rhs = models.weight_gamma(*_rhs_edges(spins, alphas)).prod()
    qtol = quad_tol if quad_tol is not None else tol / 10
    qtol *= min(1.0, max(abs(rhs), 1e-12))
    target = qtol * SUM_MARGIN

    def terms():
        """The m-terms' quadrature results, m = 0, 1, ..., up to
        MAX_SUM_TERMS of them, STRMSG_CHUNK per ``numerics.line_integrals``."""
        for lo in range(0, MAX_SUM_TERMS, STRMSG_CHUNK):
            m = np.arange(lo, min(lo + STRMSG_CHUNK, MAX_SUM_TERMS))
            yield from map(_converged, numerics.line_integrals(
                lambda x, rows: models.star_integrand(
                    ModelFamily.GAMMA_LIMIT, Spin(x, m[rows, None]), spins,
                    crossed, None), m.size, target))

    # term(-m) = term(m): W(s, (x, m)) = W(s, (-x, -m)) for every edge and
    # for S, and the integral runs over all of x
    m_star = max(abs(s.m) for s in spins)
    value = nodes = 0
    for m, res in enumerate(terms()):
        t, nodes = res.value, nodes + res.nodes_used
        value += 2 * t if m else t
        if m > m_star and 10 * abs(t) / m <= target:
            break
    else:
        raise NonConvergenceError(
            f"strmsg m-sum not within {target:.2e} "
            f"after {MAX_SUM_TERMS} terms")
    # Euler-Maclaurin: sum_{k>m} t (m/k)^5 = t (m/4 - 1/2 + 5/(12 m)) + ...
    value += 2 * t * (m / 4 - 0.5 + 5 / (12 * m))
    meta = {"nodes": nodes, "m_terms": m + 1, "tail_bound": 10 * abs(t) / m,
            "quad_tol": qtol}
    record = {"spins": [(s.x, s.m) for s in spins], "alphas": list(alphas)}
    return make_report("strmsg", record, value, rhs, tol, meta)


# ---------------------------------------------------------------------------
# master identity and its constant form


def pole_diagnostics(t, params: NomeParameters) -> float:
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
    violation.  t holds the five independent variables; the sixth is the
    derived A.
    """
    im2eta = math.pi * (params.sigma.imag + params.tau.imag)
    return min(min(ti.imag for ti in t), im2eta - sum(t).imag)


def _require_safe_contour(t, params):
    margin = pole_diagnostics(t, params)
    limit = CONTOUR_MARGIN_FRACTION * abs(params.eta)
    if margin < limit:
        raise ContourViolationError(
            f"pole margin {margin:.3e} below {limit:.3e}; contour rejected")
    return margin


def master_integrand(z: complex, y, mp, *, right_side: bool = False):
    """Master-identity integrand prod_i Gamma(t_i +- z, u_i +- y) /
    Gamma(+-2z, +-2y), at a scalar or at each element of arrays z and y
    that broadcast against each other: the exp of the sum of its Gamma
    rows' logs, one exp per (z, y).  The rows are written into the flat
    arguments of one log ``lens_gamma_appendix`` call, each row's phase
    e^{i(t_i +- z)} a constant times e^{+-iz}; the 1/Gamma(+-2z, +-2y)
    pair depends on the nomes and the grid alone and is cached per grid
    (``_inverse_measure``).

    mp is one MasterParameters, or a sequence of them at one nomes, whose
    values then lie on a leading axis: each instance's rows are a
    truncation group of the one call, so that it gets the values it gets
    alone.  With right_side=True the fifteen Gamma of the right side,
    prod_{i<j} Gamma(t_i + t_j, u_i + u_j), ride in the same call, and
    the return is the integrand and that product (a list of them, one
    per instance, for a sequence)."""
    single = isinstance(mp, MasterParameters)
    mps = [mp] if single else list(mp)
    params = mps[0].params
    # per instance, rows (t_i +- z, u_i +- y) on axes (i, +-) before the
    # axes of z and y, each pair adjacent: the mirror (-z, -y) swaps the
    # two rows of a pair, and the sum over the rows rounds alike at both;
    # the right side's rows follow them in the instance's flat batch
    grid = np.broadcast(z, y).shape
    shape = (len(mps), 6, 2) + grid
    n = math.prod(shape[1:])
    z2, e = np.empty((2, len(mps), n + 15 * right_side), complex)
    m = np.empty(z2.shape, int)
    extra = (1,) * len(grid)
    t = np.reshape([p.t for p in mps], (-1, 6, 1) + extra)
    u = np.reshape([p.u for p in mps], (-1, 6, 1) + extra)
    sign = np.reshape([1, -1], (1, 2) + extra)
    z2[:, :n].reshape(shape)[...] = t + sign * z
    e[:, :n].reshape(shape)[...] = np.exp(1j * t) * sf._phase(z, 1) ** sign
    m[:, :n].reshape(shape)[...] = u + sign * y
    if right_side:
        i, j = np.triu_indices(6, 1)
        t, u = t.reshape(-1, 6), u.reshape(-1, 6)
        z2[:, n:] = t[:, i] + t[:, j]
        e[:, n:] = np.exp(1j * z2[:, n:])
        m[:, n:] = u[:, i] + u[:, j]
    log = sf._lens_gamma_appendix(z2, e, m, params, group_axis=-2)[0]
    rows = log[:, :n].reshape(shape)
    # the sum starts from the measure, whose real part offsets the rows':
    # its partial sums stay small, and so does their rounding
    rows[:, 0, 0] += _inverse_measure(params, z, y)
    value = sf._exp_result(rows.sum(axis=(1, 2)), None, False)
    if right_side:
        # fifteen exps per instance: a product of values keeps each
        # factor's rounding at the size of its own log, not of their sum
        sides = [v.prod().item()
                 for v in sf._exp_result(log[:, n:], None, False)]
        return ((sf.python_scalar(value[0]), sides[0]) if single
                else (value, sides))
    return sf.python_scalar(value[0]) if single else value


@models.grid_cache
def _inverse_measure(params: NomeParameters, z, y):
    """log of 1/Gamma(+-2z, +-2y), the master integrand's measure, through
    the inversion relation: log Gamma(2i eta - 2z, -2y) + log Gamma(2i eta
    + 2z, 2y).  The inverted factors vanish where the original ones blow
    up, a genuine zero whose log is -inf.  Cached per grid."""
    i2eta = 2j * params.eta
    w, m = sf.stack_rows((i2eta - 2 * z, -2 * y), (i2eta + 2 * z, 2 * y))
    return sf._lens_gamma_appendix(w, sf._phase(w, 1), m, params,
                                   allow_zero=True)[0].sum(axis=0)


def constant_form(t: Sequence[complex], u: Sequence[int],
                  params: NomeParameters) -> MasterParameters:
    """The master parameters of the constant form at five t and five u:
    t_6 = 2i eta - sum(t), u_6 = -sum(u)."""
    return MasterParameters(tuple(t) + (2j * params.eta - sum(t),),
                            tuple(u) + (-sum(u),), params)


@lru_cache(maxsize=32)
def _pochhammer_norm(params: NomeParameters) -> complex:
    """(q^r;q^r) (p^r;p^r), the normalisation of the master integral; it
    depends on the nomes alone, so it is cached per params."""
    qr, pr = params.q ** params.r, params.p ** params.r
    return sf.qpochhammer_inf(qr, qr) * sf.qpochhammer_inf(pr, pr)


def _master_integral(mps, qtol, scaled: bool = False):
    """The integral over one period of sum_y master_integrand at each
    MasterParameters of mps (one nomes), divided by its right side if
    scaled: the QuadratureResults and the right sides, in the order of
    mps.  qtol holds each integral's tolerance; one that is not positive
    (or NaN) raises InvalidParameterError before any integrand call.  One
    ``numerics.Trapezoid`` steps them all (``run``): every level is one
    master_integrand batch of the integrals that have not stopped, or one
    per run of them whose Gamma rows stay below ``numerics.BATCH_ROWS``,
    and each integral stops at its own level.  Every sector y is on an
    axis of the batch, and the right sides ride in the first, which also
    sets each integral's scale 1/rhs if scaled.  The sum over y is even in
    z, because the integrand is invariant under (z, y) -> (-z, -y) and y
    runs over Z_r.  An integral whose values cancel so far that their
    rounding, 2^-52 times the period times the largest |value|, exceeds
    its tolerance (relative to max(1, |integral|)) raises
    NonConvergenceError: its stop rule can stop on rounding noise."""
    if not all(t > 0 for t in qtol):
        raise InvalidParameterError("quadrature tolerances must be positive")
    y = np.arange(mps[0].params.r)[:, None]
    scale = np.ones(len(mps), complex)
    peak = np.zeros(len(mps))   # each integrand's largest |value| so far
    steps = numerics.Trapezoid(2 * math.pi, len(mps), even=True)

    def integrand(x, run, first):
        """The y-summed integrand of the integrals run at the nodes x, and
        with first their right sides."""
        v = master_integrand(x, y, [mps[i] for i in run], right_side=first)
        v, sides = v if first else (v, [])
        if first and scaled:
            scale[run] = [1 / h for h in sides]
        f = scale[run, None] * v.sum(axis=1)
        peak[run] = np.maximum(peak[run], np.abs(f).max(axis=-1))
        return f, sides

    rhs = steps.run(integrand, qtol, 12 * y.size, 15)
    results = [_converged(res) for res in steps.results]
    for res, top, qt in zip(results, peak.tolist(), qtol):
        # the rounding of values up to top, summed over the period, scaled
        # as the stop rule scales a change: a change below it is noise
        floor = 2.0 ** -52 * 2 * math.pi * top / max(1.0, abs(res.value))
        if floor > qt:
            raise NonConvergenceError(f"master integral's rounding floor "
                                      f"{floor:.2e} above tolerance {qt:.2e}")
    return results, rhs


def verify_masters(mps: Sequence[MasterParameters], tol: float = 1e-6,
                   quad_tol: Optional[float] = None) -> list:
    """Master summation/integration identity at each MasterParameters of
    mps; the reports, in order:

    (q^r;q^r) (p^r;p^r) sum_y int_0^{2pi} dz/(4pi)
        prod_i Gamma(t_i +- z, u_i +- y) / Gamma(+-2z, +-2y)
      = prod_{i<j} Gamma(t_i + t_j, u_i + u_j).

    1/Gamma factors are evaluated through the inversion relation so the
    integrand stays pole-free on the real contour.  The instances of one
    nomes are verified together (``_master_integral``): each trapezoid
    level is one integrand batch over the instances that have not
    stopped, each instance's rows a truncation group of their own, so its
    report is the one it gets alone.  An error raised for one instance is
    raised for all.
    """
    margins = [_require_safe_contour(mp.t[:5], mp.params) for mp in mps]
    qtol = quad_tol if quad_tol is not None else tol / 10
    nomes = {}   # the instances of each nomes
    for i, mp in enumerate(mps):
        nomes.setdefault(mp.params, []).append(i)
    reports = [None] * len(mps)
    for params, idx in nomes.items():
        pref = _pochhammer_norm(params)
        results, rhs = _master_integral([mps[i] for i in idx],
                                        [qtol] * len(idx))
        for i, res, h in zip(idx, results, rhs):
            mp = mps[i]
            meta = {"nodes": res.nodes_used, "pole_margin": margins[i],
                    "quad_tol": qtol, "quad_error": res.error_estimate}
            record = {"t": list(mp.t), "u": list(mp.u),
                      "sigma": params.sigma, "tau": params.tau,
                      "r": params.r}
            reports[i] = make_report("master", record,
                                     res.value * (pref / (4 * math.pi)), h,
                                     tol, meta)
    return reports


def verify_I_constants(cases, params: NomeParameters, tol: float = 1e-6,
                       shift_tol: float = 1e-7,
                       quad_tol: Optional[float] = None) -> list:
    """Constant form of the master identity at each (t, u) of cases, five
    t and five u each; the reports, in case order:
    I(t_1..t_5, u_1..u_5) = 4 pi / ((q^r;q^r) (p^r;p^r)),
    plus invariance of I under t_1 -> t_1 + pi sigma, u_1 -> u_1 - 1.

    I is the master integral at constant_form(t, u) over its right side:
    the master identity divided by that side.  Each case's two integrals,
    at t and at the shifted t, are two integrals of one
    ``_master_integral`` over all the cases, each with its own tolerance
    (the shifted one's at most shift_tol / 10) and its own right side, so
    each report is the one its case gets alone.  An error raised for one
    case is raised for all.
    """
    qtol = quad_tol if quad_tol is not None else tol / 10
    mps, qtols, margins = [], [], []
    for t, u in cases:
        if len(t) != 5 or len(u) != 5:
            raise InvalidParameterError(
                "constant form takes five t and five u")
        ts = (t[0] + math.pi * params.sigma,) + tuple(t[1:])
        us = (u[0] - 1,) + tuple(u[1:])
        for tt in (t, ts):
            if abs(sum(tt).imag) >= abs((2j * params.eta).imag):
                raise InvalidParameterError(
                    "|Im(A)| must stay below |Im(2i eta)|, also after the "
                    "shift")
        margins.append(min(_require_safe_contour(t, params),
                           _require_safe_contour(ts, params)))
        mps += [constant_form(t, u, params), constant_form(ts, us, params)]
        qtols += [qtol, min(qtol, shift_tol / 10)]
    if not cases:
        return []
    results, _ = _master_integral(mps, qtols, scaled=True)
    rhs = 4 * math.pi / _pochhammer_norm(params)
    reports = []
    for k, ((t, u), margin) in enumerate(zip(cases, margins)):
        res0, res1 = results[2 * k:2 * k + 2]
        I0, I1 = res0.value, res1.value
        shift_res = abs(I1 - I0) / max(abs(I0), abs(I1))
        meta = {"nodes": res0.nodes_used + res1.nodes_used,
                "pole_margin": margin, "shift_residual": shift_res,
                "shift_tolerance": shift_tol, "quad_tol": qtol,
                "quad_error": max(res0.error_estimate, res1.error_estimate)}
        record = {"t": list(t), "u": list(u),
                  "sigma": params.sigma, "tau": params.tau, "r": params.r}
        reports.append(make_report(
            "iconst", record, I0, rhs, tol, meta,
            checks={"shift_invariance": shift_res <= shift_tol}))
    return reports


# ---------------------------------------------------------------------------
# theta difference equation

#: a failed thtfunct check whose value is at most this many units of
#: roundoff (2^-52) times rhs_cancellation is taken again at
#: RECOMPUTE_DPS digits: the cancellation explains it as rounding
RECOMPUTE_K = 1024
RECOMPUTE_DPS = 30
#: decimal digits of a double, the precision of a verdict not taken again
DOUBLE_DPS = 16
#: a re-take whose own terms cancel by C leaves RECOMPUTE_DPS - log10 C
#: digits; below DOUBLE_DPS it is taken once more, at DOUBLE_DPS +
#: ceil(log10 C) + SPARE_DPS digits
SPARE_DPS = 2


#: the fourteen lens theta arguments per point z of the difference
#: identity, t_i + z and t_i - z for i = 0..4, +-2z and A +- z, as
#: (which of t_0..t_4, then 0 or A) + (coefficient) z
_POINT_COEFFICIENTS = np.array([1] * 5 + [-1] * 5 + [2, -2, 1, -1])


def _theta_arguments(z, y, t, u):
    """Arguments (x, m) of the lens theta functions of both sides of the
    difference identity, one row per case: z (cases, points), y (cases,),
    t and u (cases, 5); x and m are (cases, 9 + 14 points).  Each row holds
    first the nine that do not depend on z, theta(t_0 + t_i) and
    theta(A - t_i) for i = 1..4 and theta(t_0 + A), then fourteen per
    point, theta(t_i + z), theta(t_i - z) for i = 0..4, theta(+-2z) and
    theta(A +- z), all cases' in one broadcast pass.  t is an array of
    complex or of mpmath numbers (z likewise), u and y of integers."""
    n, k = len(t), _POINT_COEFFICIENTS
    A, U = sum(t.T)[:, None], sum(u.T)[:, None]
    x = np.concatenate([t[:, :1] + t[:, 1:], A - t[:, 1:], t[:, :1] + A,
                        (np.concatenate([t, t, np.zeros((n, 2), t.dtype),
                                         A, A], axis=1)[:, None]
                         + k * z[..., None]).reshape(n, -1)], axis=1)
    m = np.concatenate([u[:, :1] + u[:, 1:], U - u[:, 1:], u[:, :1] + U,
                        np.tile(np.concatenate([u, u, np.zeros((n, 2), int),
                                                U, U], axis=1)
                                + k * y[:, None], z.shape[1])], axis=1)
    return x, m


def _theta_sides(v, z, ys, t0s, u0s, r, exp, pi):
    """lhs, rhs and the right side's two terms (term_p, term_m), each
    (cases, points), from the lens theta values v laid out by
    _theta_arguments, in the precision of v, exp (elementwise) and pi.
    ys, t0s and u0s are each case's y, t_0 and u_0.  So that each case
    gets the bits it gets alone, its scalar factors (the prefactor and two
    phases) are scalar arithmetic, one case at a time, and enter the array
    passes as a stride-0 column, since numpy rounds a complex product with
    a broadcast operand otherwise than one with a full array; the products
    of four or five theta values run along the contiguous axis."""
    n = len(v)
    c, w = v[:, :9], v[:, 9:].reshape(n, -1, 14)
    den = c[:, :4].prod(axis=1)
    pref, shift_p, phase_m = (np.array(f, v.dtype)[:, None] for f in zip(*(
        (-exp(1j * t0 / r) * c8 / d,
         2j * pi * sf.mod_bracket(y - u0, r) / r,
         exp(2j * pi * (sf.mod_bracket(y - u0 + 1, r)
                        + sf.mod_bracket(-2 * y - 1, r)) / r))
        for y, t0, u0, c8, d in zip(ys, t0s, u0s, c[:, 8], den))))
    lhs = (w[..., 0] * w[..., 5] / (w[..., 12] * w[..., 13])
           * c[:, 4:8].prod(axis=1)[:, None] / den[:, None] - 1)
    term_p = (exp(-1j * z / r + shift_p) * w[..., :5].prod(axis=-1)
              / (w[..., 10] * w[..., 12]))
    term_m = (exp(1j * z / r) * phase_m * w[..., 5:10].prod(axis=-1)
              / (w[..., 11] * w[..., 13]))
    return lhs, pref * (term_p + term_m), (term_p, term_m)


def _difference_sides(cases, params: NomeParameters) -> list:
    """(lhs, rhs, rhs_cancellation) of the difference identity at each
    (zs, y, t, u) of cases, each an array of the shape of zs; the arrays
    zs have one size.  rhs_cancellation is that of the right side's two
    terms, (|term_p| + |term_m|) / |term_p + term_m|: the factor by which
    their rounding errors grow in the sum.  Every lens theta function of
    every case, at all of its points, is one batched call, each case a
    truncation group of its own (``special_functions.lens_theta``), so
    that it gets the values it gets alone; the nine that do not depend on
    z are evaluated once per case, and the sides of all cases are formed
    in one array pass over a leading case axis."""
    zs, ys, ts, us = zip(*cases)
    z = np.array([p.reshape(-1) for p in zs])
    x, m = _theta_arguments(z, np.array(ys), np.array(ts, complex),
                            np.array(us))
    lhs, rhs, (term_p, term_m) = _theta_sides(
        sf.lens_theta(x, m, params, group_axis=-2), z, ys,
        [t[0] for t in ts], [u[0] for u in us], params.r, np.exp, math.pi)
    total = np.abs(term_p + term_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        cancellation = np.where(total != 0,
                                (np.abs(term_p) + np.abs(term_m)) / total,
                                math.inf)
    return [tuple(side[i].reshape(p.shape)
                  for side in (lhs, rhs, cancellation))
            for i, p in enumerate(zs)]


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
                         u: Sequence[int], params: NomeParameters,
                         dps: int = RECOMPUTE_DPS, *,
                         cancellation: bool = False):
    """lhs, rhs and period_shift_residual_rhs of the difference identity,
    from dps-digit lens theta products at z and z + pi tau r; lhs and rhs
    are mpmath numbers at that precision, so that their residual is formed
    from them, not from their doubles.  With cancellation, also the larger
    of the right side's cancellations at the two points, formed from the
    dps-digit terms (at most 10^dps)."""
    import mpmath as mp
    with mp.workdps(dps):
        tv = np.array([[mp.mpc(ti) for ti in t]], object)
        zs = np.array([[mp.mpc(z), mp.mpc(z) + mp.pi * mp.mpc(params.tau)
                        * params.r]], object)
        x, m = _theta_arguments(zs, np.array([y]), tv, np.array([u]))
        (lhs,), (rhs,), terms = _theta_sides(
            _lens_theta_mp(x[0], m[0], params, mp)[None], zs, [y], tv[:, 0],
            [u[0]], params.r, np.frompyfunc(mp.exp, 1, 1), mp.pi)
        inv_r = abs(rhs[1] - rhs[0]) / max(1, abs(rhs[0]))
        sides = lhs[0], rhs[0], float(inv_r)
        if not cancellation:
            return sides
        sizes = [(abs(p) + abs(q), abs(p + q))
                 for p, q in zip(*(term[0, :2] for term in terms))]
        return (*sides, max(float(s / max(d, mp.eps * s)) for s, d in sizes))


def verify_theta_differences(cases, params: NomeParameters,
                             tol: float = 1e-8) -> list:
    """Difference identity for the lens theta functions, plus invariance of
    each side under z -> z + pi tau r, at each (z, y, t, u) of cases; the
    reports, in case order.

    Every case's lens theta values, at z, z + pi tau r and z_star, are
    one batched call, each case's a truncation group of its own
    (``_difference_sides``), so that its report is the one it gets alone.
    A failed residual or period_shift_rhs check whose value lies within
    RECOMPUTE_K units of roundoff times rhs_cancellation is taken again
    from RECOMPUTE_DPS-digit lens theta products (lhs, rhs and both of
    those checks), and once more at more digits (SPARE_DPS) where the
    re-taken right side's own terms cancel by more than the digits a
    double keeps; numerics_meta.rhs_precision records the digits the
    verdict was taken at.  An error raised for one case is raised for
    all."""
    if not cases:
        return []
    shift = math.pi * params.tau * params.r
    points = []
    for z, y, t, u in cases:
        # at z_star the first term of each side carries an exact theta
        # zero and both sides collapse to -1
        z_star = (-t[0] - math.pi * params.tau
                  * sf.mod_bracket(-u[0] - y, params.r))
        points.append((np.asarray([z, z + shift, z_star], complex), y, t, u))
    return [_theta_report(case, sides, params, tol)
            for case, sides in zip(cases, _difference_sides(points, params))]


def _theta_report(case, sides, params: NomeParameters,
                  tol: float) -> VerificationReport:
    """The report of ``verify_theta_differences`` at case = (z, y, t, u),
    from its sides at z, z + pi tau r and z_star."""
    z, y, t, u = case
    (lhs, lhs_s, lhs_p), (rhs, rhs_s, rhs_p), cancel = sides
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
                "near_pole_lhs": lhs_p, "near_pole_rhs": rhs_p}
        return make_report("thtfunct", record, lhs, rhs, tol, meta,
                           checks={"period_shift_lhs": inv_l <= tol,
                                   "period_shift_rhs": inv_r <= tol})

    rep = report(lhs, rhs, inv_r, DOUBLE_DPS)
    rounding = RECOMPUTE_K * 2.0 ** -52 * cancellation
    residual = rep.abs_residual if abs(rep.rhs) < 1e-10 else rep.rel_residual
    if ((not rep.checks["residual"] and residual <= rounding)
            or (not rep.checks["period_shift_rhs"] and inv_r <= rounding)):
        digits = RECOMPUTE_DPS
        *sides, cancel = _theta_difference_mp(z, y, t, u, params,
                                              cancellation=True)
        if digits - math.log10(cancel) < DOUBLE_DPS:
            # the re-taken terms' own cancellation leaves fewer digits than
            # a double
            digits = DOUBLE_DPS + math.ceil(math.log10(cancel)) + SPARE_DPS
            sides = _theta_difference_mp(z, y, t, u, params, digits)
        rep = report(*sides, digits)
    return rep


# ---------------------------------------------------------------------------
# bridges, brackets, limits, inversions


def verify_gamma_phi_bridge(z: complex, m: int, params: NomeParameters,
                            tol: float = 1e-10) -> VerificationReport:
    """Diagnostic bridge between the two lens gamma conventions:
    Phi_{r,m}(z) against e^{-varphi(w,m)} Gamma(w,m) at w = -2z + 2i eta
    with doubled modular parameters (squared nomes).  Recorded, never an
    acceptance gate.
    """
    dbl = params.doubled()
    w = -2 * z + 2j * params.eta
    lhs = sf.lens_elliptic_gamma(z, m, params)
    rhs = cmath.exp(-sf.varphi(w, m, dbl)) * sf.lens_gamma_appendix(w, m, dbl)
    record = {"z": z, "m": m, "sigma": params.sigma, "tau": params.tau,
              "r": params.r}
    return make_report("gamma_phi_bridge", record, lhs, rhs, tol)


def _bracket_floor(m: int, r: int) -> int:
    # independent oracle: representative via floored division
    return m - r * math.floor(m / r)


def verify_bracket_identities(r_max: int = 64) -> VerificationReport:
    """All six modular-bracket identities, exact integer arithmetic, for
    r in [1, r_max] and m in [-3r, 3r]."""
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
    meta = {"cases_checked": checked, "failures": failures}
    # lhs and rhs record the failure count against zero
    return make_report("brackets", {"r_max": r_max}, len(failures), 0.0,
                       0.0, meta, checks={"no_failures": not failures},
                       residual=False)


def verify_limit_r_to_inf(z: complex, n: int, params: NomeParameters,
                          r_list: Sequence[int] = (4, 8, 16, 32)
                          ) -> VerificationReport:
    """|Phi_{r,n}(z) - Q(z,n)| strictly decreasing along r_list (a
    non-increase within 1e-14 absolute counts as a decrease).  The nomes
    of params are kept fixed; its own r is ignored."""
    sigma, tau = params.sigma, params.tau
    errs = []
    for r in r_list:
        pr = NomeParameters(sigma, tau, r)
        errs.append(abs(sf.lens_elliptic_gamma(z, n, pr)
                        - models.q_function(z, n, pr)))
    decreasing = all(b <= a + 1e-14 for a, b in zip(errs, errs[1:]))
    meta = {"errors": errs}
    record = {"z": z, "n": n, "sigma": sigma, "tau": tau, "r_list": list(r_list)}
    return make_report("limit_r_to_inf", record, errs[-1], 0.0,
                       max(errs[0], 1e-12), meta,
                       checks={"monotone_decrease":
                               decreasing and errs[-1] <= errs[0] + 1e-14},
                       residual=False)


def verify_limit_hbar(alpha: float, x: float, m: int,
                      hbar_list: Sequence[float] = (0.2, 0.1, 0.05)
                      ) -> VerificationReport:
    """Euler-gamma asymptotics of Q, kappa, and the single-spin weight as
    the nomes approach 1 (p = q = e^{-hbar}): all three ratio deviations
    must shrink strictly along hbar_list."""
    from scipy.special import gamma as _gamma
    dev_q, dev_k, dev_s = [], [], []
    for hb in hbar_list:
        pr = NomeParameters(1j * hb / math.pi, 1j * hb / math.pi, 1)
        qv = models.q_function(hb * x, m, pr)
        q_asy = ((4 * hb) ** (1j * x)
                 * _gamma((1 + abs(m) + 1j * x) / 2)
                 / _gamma((1 + abs(m) - 1j * x) / 2))
        dev_q.append(abs(qv / q_asy - 1))
        kv = models.kappa_qlimit(alpha * hb, pr)
        k_asy = ((8 * hb) ** (-alpha)
                 * _gamma((1 - alpha) / 2) / _gamma((1 + alpha) / 2))
        dev_k.append(abs(kv / k_asy - 1))
        sv = models.single_spin_qlimit(Spin(hb * x, m), pr)
        s_asy = (4 * hb) ** 2 * (x * x + m * m) / (2 * math.pi)
        if s_asy != 0:
            dev_s.append(abs(sv / s_asy - 1))
    shrinking = all(
        all(b < a + 1e-14 for a, b in zip(seq, seq[1:]))
        for seq in (dev_q, dev_k, dev_s) if seq)
    meta = {"dev_q": dev_q, "dev_kappa": dev_k, "dev_single_spin": dev_s}
    record = {"alpha": alpha, "x": x, "m": m, "hbar_list": list(hbar_list)}
    return make_report("limit_hbar", record, dev_q[-1], 0.0,
                       max(dev_q[0], 1e-12), meta,
                       checks={"monotone_decrease": shrinking},
                       residual=False)


def verify_inversions(cases, params: Optional[NomeParameters] = None,
                      tol: float = 1e-10) -> list:
    """First inversion relation W_alpha(si,sj) W_{-alpha}(si,sj) = 1 at
    each (family, alpha, spins) of cases; the reports, in case order.

    W_alpha and W_{-alpha} of all the cases of one family are one weight
    call, each case's rows a truncation group of its own
    (``models.edge_weight`` with ``stars``), so that its report is the one
    it gets alone.  An error raised for one case is raised for all."""
    families = {}
    for i, (family, _, _) in enumerate(cases):
        families.setdefault(family, []).append(i)
    reports = [None] * len(cases)
    for family, idx in families.items():
        alpha = np.array([[cases[i][1], -cases[i][1]] for i in idx], float)
        x = np.array([[s.x for s in cases[i][2]] for i in idx], float)
        m = np.array([[s.m for s in cases[i][2]] for i in idx])
        weights = models.edge_weight(family, alpha, Spin(x[:, :1], m[:, :1]),
                                     Spin(x[:, 1:], m[:, 1:]), params,
                                     stars=len(idx))
        for i, (w1, w2) in zip(idx, weights):
            _, a, spins = cases[i]
            record = {"family": family.value, "alpha": a,
                      "spins": [(s.x, s.m) for s in spins]}
            if params is not None:
                record.update({"sigma": params.sigma, "tau": params.tau,
                               "r": params.r})
            reports[i] = make_report("inversion_first", record, w1 * w2,
                                     1.0, tol)
    return reports


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
                          params: NomeParameters) -> complex:
    """Exact factor C with RHS_str = C * RHS_master (and likewise for the
    LHS) under the change of variables of cov_master_parameters.

    Collects, per edge, the bracket prefactor and 1/kappa of the elliptic
    weight, the exponential prefactors exchanged by the convention bridge,
    and divides out the kappa-ratio gamma factors that the master side
    carries for each spectral parameter.
    """
    r = params.r
    dbl = params.doubled()
    i2eta = 2j * params.eta
    # the three edges (alpha, sa, sb) on one axis, and their (dx, dm) and
    # (sx, sm) rows on a new axis 0
    alpha, sa, sb = _rhs_edges(spins, alphas)
    dm, sm = sa.m - sb.m, sa.m + sb.m
    xx, mm = sf.stack_rows((sa.x - sb.x, dm), (sa.x + sb.x, sm))
    log_pre = (-2 * alpha * (sf.bracket_pm(dm, r) + sf.bracket_pm(sm, r))
               / r).sum()
    log_pre -= (sf.varphi(-2 * (xx + 1j * alpha) + i2eta, mm, dbl)
                + sf.varphi(-2 * (-xx + 1j * alpha) + i2eta, -mm, dbl)).sum()
    c = (models.kappa(ModelFamily.ELLIPTIC, alpha, params)
         * sf.lens_elliptic_gamma(1j * (params.eta.real - 2 * alpha), 0,
                                  params)).prod()
    return complex(cmath.exp(log_pre) / c)


def verify_cov_consistency(spins: Sequence[Spin], alphas: Sequence[float],
                           params: NomeParameters,
                           tol: float = 1e-8) -> VerificationReport:
    """The master identity, specialised by the change of variables, must
    reproduce the star-triangle LHS and RHS separately (not only their
    ratio)."""
    mp = cov_master_parameters(spins, alphas, params)
    factor = cov_conversion_factor(spins, alphas, params)
    qt = tol / 30
    (rep_str,) = verify_star_triangles(ModelFamily.ELLIPTIC, [(spins, alphas)],
                                       params, tol, quad_tol=qt)
    (rep_master,) = verify_masters([mp], tol, quad_tol=qt)
    lhs_res = (abs(rep_str.lhs - factor * rep_master.lhs)
               / max(abs(rep_str.lhs), abs(factor * rep_master.lhs)))
    rhs_res = (abs(rep_str.rhs - factor * rep_master.rhs)
               / max(abs(rep_str.rhs), abs(factor * rep_master.rhs)))
    meta = {"lhs_residual": lhs_res, "rhs_residual": rhs_res,
            "conversion_factor": factor}
    record = {"spins": [(s.x, s.m) for s in spins], "alphas": list(alphas),
              "sigma": params.sigma, "tau": params.tau, "r": params.r}
    return make_report("cov", record, rep_str.lhs, factor * rep_master.lhs,
                       tol, meta,
                       checks={"lhs_residual": lhs_res <= tol,
                               "rhs_residual": rhs_res <= tol},
                       residual=False)
