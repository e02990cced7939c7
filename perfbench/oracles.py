"""Independent oracles for the lenstri layers the workloads exercise.

Special functions are compared against their defining products evaluated
at 30 digits with mpmath (direct products, not lenstri's log-space sums),
theta4 and the q-Pochhammer symbol also against mpmath's own ``jtheta`` and
``qp``; the Euler-gamma weight against ``mpmath.loggamma``; and the two
quadrature rules against integrals with closed forms.  Every function
returns a list of mismatch descriptions, empty when all agree.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

mp.mp.dps = 30
_TINY = mp.mpf("1e-32")

# |computed - oracle| may exceed lenstri's own tail bound by this much,
# relative to |oracle|: double-precision rounding of the log-space sums
REL_SLACK = 1e-12

SIGMAS = (0.05 + 0.5j, 0.1 + 0.4j)
Z_POINTS = (0.3 + 0.1j, -0.7 + 0.05j)
#: (z, m) points of the lens functions; each r in 1..4 takes two of them
ZM_POINTS = ((0.3 + 0.1j, 0), (-0.7 + 0.05j, 1), (1.1 - 0.08j, 2))


def _prod1(c, a):
    """prod_{j>=0} (1 - c a^j)."""
    acc, term = mp.mpc(1), mp.mpc(c)
    while abs(term) > _TINY:
        acc *= 1 - term
        term *= a
    return acc


def _prod2(c, a, b):
    """prod_{j,k>=0} (1 - c a^j b^k)."""
    acc, cj = mp.mpc(1), mp.mpc(c)
    while abs(cj) > _TINY:
        acc *= _prod1(cj, b)
        cj *= a
    return acc


def _nomes(params):
    sigma, tau = mp.mpc(params.sigma), mp.mpc(params.tau)
    p, q = mp.exp(1j * mp.pi * sigma), mp.exp(1j * mp.pi * tau)
    eta = -1j * mp.pi * (sigma + tau) / 2
    zeta = 1j * mp.pi * (1 + tau / 2 - sigma / 2)
    return sigma, tau, p, q, eta, zeta


def elliptic_gamma(z, p, q):
    e2 = mp.exp(2j * mp.mpc(z))
    return _prod2(e2 * p * q, p * p, q * q) / _prod2(p * q / e2, p * p, q * q)


def lens_elliptic_gamma(z, m, params):
    sigma, tau, p, q, _, _ = _nomes(params)
    r = params.r
    shift = mp.mpf(r) / 2 - (m % r)
    return (elliptic_gamma(mp.mpc(z) + shift * mp.pi * sigma, p * q, p ** r)
            * elliptic_gamma(mp.mpc(z) - shift * mp.pi * tau, p * q, q ** r))


def lens_gamma_appendix(z, m, params):
    _, _, p, q, eta, zeta = _nomes(params)
    r = params.r
    br, brm = m % r, (-m) % r
    pq = p * q
    ei = mp.exp(1j * mp.mpc(z))
    log_pre = (-2 * eta - 2j * mp.mpc(z) + 2 * zeta * (br - brm) / 3) \
        * (br * brm) / (4 * r)
    return (mp.exp(log_pre)
            * _prod2(pq * p ** (r - br) / ei, pq, p ** r)
            / _prod2(ei * p ** br, pq, p ** r)
            * _prod2(pq * q ** br / ei, pq, q ** r)
            / _prod2(ei * q ** (r - br), pq, q ** r))


def lens_theta(z, m, params):
    _, tau, _, q, _, zeta = _nomes(params)
    r = params.r
    brm = (-m) % r
    pm = (m % r) * brm
    z = mp.mpc(z)
    phi = (zeta * (r - 1) * (r + 1) / 3 - 1j * mp.pi * (tau + 2) * pm
           - 1j * (z + mp.pi) * (r - 1 - 2 * brm)) / (2 * r)
    return (mp.exp(phi) * _prod1(mp.exp(1j * z) * q ** brm, q ** r)
            * _prod1(mp.exp(-1j * z) * q ** (r - brm), q ** r))


def weight_gamma(alpha, si, sj):
    a = mp.mpf(alpha)
    sm, dm = si.m + sj.m, si.m - sj.m
    sx, dx = mp.mpf(si.x) + sj.x, mp.mpf(si.x) - sj.x

    def pair(base, off):
        return mp.loggamma(base + off) + mp.loggamma(base - off)

    ln = (mp.loggamma((1 + a) / 2) - mp.loggamma((1 - a) / 2)
          + pair((1 - a - sm) / 2, 1j * sx / 2)
          + pair((1 - a - dm) / 2, 1j * dx / 2)
          - pair((1 + a - sm) / 2, 1j * sx / 2)
          - pair((1 + a - dm) / 2, 1j * dx / 2))
    return mp.re(mp.exp(ln))


def _compare(label, got, bound, want, errors):
    want = complex(want)
    if not abs(complex(got) - want) <= bound + REL_SLACK * abs(want):
        errors.append(f"{label}: lenstri {complex(got)!r} vs oracle {want!r}"
                      f" (tail bound {bound:.3e})")


def check_special_functions(sf, NomeParameters) -> list:
    errors = []
    for sigma in SIGMAS:
        base = NomeParameters(sigma, -sigma.conjugate(), 1)
        _, _, p, q, _, _ = _nomes(base)
        for x in (0.2 + 0.1j, 0.5 - 0.3j):
            v, b = sf.qpochhammer_inf(x, base.q, with_bound=True)
            _compare(f"qpochhammer_inf({x}, q) sigma={sigma}", v, b,
                     mp.qp(mp.mpc(x), q), errors)
            _compare(f"qpochhammer_inf({x}, q) product sigma={sigma}", v, b,
                     _prod1(mp.mpc(x), q), errors)
        for z in Z_POINTS:
            v, b = sf.theta4(z, base.p, with_bound=True)
            _compare(f"theta4({z}) sigma={sigma}", v, b,
                     mp.jtheta(4, mp.mpc(z), p), errors)
            v, b = sf.elliptic_gamma(z, base.p, base.q, with_bound=True)
            _compare(f"elliptic_gamma({z}) sigma={sigma}", v, b,
                     elliptic_gamma(z, p, q), errors)
        for r in (1, 2, 3, 4):
            params = NomeParameters(sigma, -sigma.conjugate(), r)
            for z, m in (ZM_POINTS[r % 3], ZM_POINTS[(r + 1) % 3]):
                where = f"({z}, m={m}) r={r} sigma={sigma}"
                for fn, oracle in (("lens_elliptic_gamma", lens_elliptic_gamma),
                                   ("lens_gamma_appendix", lens_gamma_appendix),
                                   ("lens_theta", lens_theta)):
                    v, b = getattr(sf, fn)(z, m, params, with_bound=True)
                    _compare(fn + where, v, b, oracle(z, m, params), errors)
    return errors


def check_weight_gamma(models) -> list:
    errors = []
    Spin = models.Spin
    for alpha in (0.2, 0.55, 0.8):
        for si, sj in ((Spin(0.3, 0), Spin(-1.2, 1)), (Spin(1.7, -2), Spin(0.4, 3)),
                       (Spin(-0.9, 1), Spin(2.5, -1))):
            got = models.weight_gamma(alpha, si, sj)
            want = float(weight_gamma(alpha, si, sj))
            if not abs(got - want) <= 1e-12 * abs(want):
                errors.append(f"weight_gamma({alpha}, {si}, {sj}): lenstri "
                              f"{got!r} vs mpmath.loggamma {want!r}")
    return errors


def check_quadrature(numerics) -> list:
    errors = []
    for a in (1.25, 2.0, 5.0):
        exact = 2 * math.pi / math.sqrt(a * a - 1)
        res = numerics.periodic_integrate(lambda x: 1 / (a - cmath.cos(x)),
                                          2 * math.pi, 1e-12)
        if not (res.converged and abs(res.value - exact) <= 1e-11 * exact):
            errors.append(f"periodic_integrate 1/({a} - cos x): {res} vs {exact!r}")
    res = numerics.line_integrate(lambda x: 1 / (1 + x * x), 1e-7)
    if not (res.converged and abs(res.value - math.pi) <= 1e-6):
        errors.append(f"line_integrate 1/(1 + x^2): {res} vs pi")
    return errors


def check_all(modules: dict) -> list:
    return (check_special_functions(modules["special_functions"],
                                    modules["params"].NomeParameters)
            + check_weight_gamma(modules["models"])
            + check_quadrature(modules["numerics"]))
