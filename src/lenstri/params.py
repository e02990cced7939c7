"""Global parameter records, truncation limits and error types shared by
every evaluator."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


class InvalidParameterError(ValueError):
    """An argument lies outside the domain of the requested evaluation."""


class DivergentParameterError(InvalidParameterError):
    """A nome or ratio has magnitude >= 1, so the product/sum diverges."""


class NonConvergenceError(ArithmeticError):
    """A truncation cap was hit before the term-size criterion was met."""


class PoleHitError(ArithmeticError):
    """An evaluation point is too close to a pole or zero of a gamma factor."""


class ContourViolationError(ArithmeticError):
    """A pole of the integrand sits on or too close to the integration contour."""


@dataclass(frozen=True)
class NomeParameters:
    """Modular parameters sigma, tau and the lens order r.

    Derived quantities:
      p = exp(i*pi*sigma),  q = exp(i*pi*tau)      (elliptic nomes, |p|,|q| < 1)
      eta = -i*pi*(sigma+tau)/2                    (crossing parameter)
      zeta = i*pi*(1 + tau/2 - sigma/2)

    The physical regime is tau = -conj(sigma), where p = conj(q) and eta is
    real and positive.
    """

    sigma: complex
    tau: complex
    r: int = 1

    def __post_init__(self):
        if self.r < 1:
            raise InvalidParameterError(f"lens order r must be >= 1, got {self.r}")
        if self.sigma.imag <= 0 or self.tau.imag <= 0:
            raise InvalidParameterError(
                "Im(sigma) and Im(tau) must be positive "
                f"(got sigma={self.sigma}, tau={self.tau})"
            )

    @property
    def p(self) -> complex:
        return cmath.exp(1j * math.pi * self.sigma)

    @property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.tau)

    @property
    def eta(self) -> complex:
        return -1j * math.pi * (self.sigma + self.tau) / 2

    @property
    def zeta(self) -> complex:
        return 1j * math.pi * (1 + self.tau / 2 - self.sigma / 2)

    def doubled(self) -> "NomeParameters":
        """Parameters with sigma, tau doubled (squares both nomes).

        Maps between the two conventions of the lens elliptic gamma function:
        the product form indexed by squared nomes corresponds to the
        exponential-prefactor form at doubled modular parameters.
        """
        return NomeParameters(2 * self.sigma, 2 * self.tau, self.r)


def physical_parameters(a: float = 0.05, b: float = 0.5, r: int = 1) -> NomeParameters:
    """Physical-regime parameters sigma = a+ib, tau = -a+ib (p = conj(q))."""
    return NomeParameters(complex(a, b), complex(-a, b), r)


# Truncation limits of every infinite product and sum.  A caller does not
# set them: the same three numbers cut every truncation in lenstri.

#: a multiplicative term is treated as 1 (an additive term as 0) once its
#: magnitude drops below this threshold
TERM_EPSILON = 1e-16
#: the most factors one product multiplies out, for a double product the
#: total over its staircase's rows; hitting it before the TERM_EPSILON
#: criterion raises NonConvergenceError instead of silently truncating
MAX_PRODUCT_INDEX = 10_000
#: the most terms one sum adds (the kappa series, the rinfstr and strmsg
#: m-sums), enforced the same way
MAX_SUM_TERMS = 10_000
