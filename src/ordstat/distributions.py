"""Source distributions and their moment-kernel evaluations.

Everything downstream is built from three integrals of a nonnegative
random variable with density ``p``:

* ``kernel_c(gamma, lam)``  = int_0^gamma p(x) exp(lam*x) dx
* ``kernel_e(gamma, lam)``  = int_gamma^inf p(x) exp(lam*x) dx
* ``kernel_mu(ga, gb, lam)`` = int_ga^gb p(x) exp(lam*x) dx

``lam`` may be complex; with an unbounded upper limit the integral exists
only for ``Re(lam) < abscissa``, the distribution's declared convergence
abscissa.  :class:`Exponential` and :class:`HalfNormal` carry closed forms;
:class:`CustomDistribution` evaluates the kernels by adaptive quadrature and
exists so that any density/CDF pair can be plugged into the generic
machinery (and so the closed forms can be tested against an independent
route).
"""

import math
import sys

import numpy as np

from ordstat import _scipy
from ordstat._special import erf, erfcx
from ordstat.errors import DivergentIntegralError, DomainError

__all__ = ["Distribution", "Exponential", "HalfNormal", "CustomDistribution"]

# scipy.integrate loads at the first quadrature (``CustomDistribution``'s
# kernels), as this module's ``integrate``; the quadratures look it up on
# the module, where perfbench's tracer replaces it to count them.
__getattr__ = _scipy.lazy_integrate(__name__)
_this = sys.modules[__name__]

# Adaptive quadrature targets for the generic kernel path.
_QUAD_ABS = 1e-10
_QUAD_REL = 1e-8


def _positive(name, value):
    """``value`` as a float, which must be positive and finite."""
    v = float(value)
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"{name} must be positive and finite, not {value!r}")
    return v


def _is_complex(lam):
    return isinstance(lam, complex) and lam.imag != 0.0


def _as_scalar(lam):
    """Collapse complex ``lam`` with zero imaginary part to a float so the
    real-argument code paths apply (contour nodes can land on the axis)."""
    if isinstance(lam, complex):
        return lam.real if lam.imag == 0.0 else lam
    return float(lam)


def _typed(val, lam):
    """A kernel value as its ``lam`` asks: an array for an array, else
    complex for complex ``lam`` and float for real."""
    if np.ndim(lam):
        return val
    return complex(val) if _is_complex(lam) else float(val)


class Distribution:
    """A nonnegative random variable with moment-kernel evaluations.

    Subclasses must set ``name``, ``mean``, ``abscissa`` (supremum of
    ``Re(lam)`` for which ``E[exp(lam*X)]`` is finite; ``inf`` if entire)
    and ``support_upper`` (``inf`` unless the density has bounded support),
    and implement ``pdf`` and ``cdf`` (vectorized over numpy arrays).
    """

    name = "distribution"
    mean = None
    abscissa = None
    support_upper = math.inf

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    # Single-point forms, for the one scalar caller left: the adaptive
    # quadrature of ``_quad_kernel``.  Everything else evaluates arrays
    # through ``pdf`` and ``cdf``.

    def pdf1(self, x):
        return float(self.pdf(x))

    def cdf1(self, x):
        return float(self.cdf(x))

    def sample(self, rng, size):
        """Draw ``size`` variates using the numpy generator ``rng``."""
        raise NotImplementedError(f"{self.name} does not define a sampler")

    # -- kernels (generic quadrature implementations; subclasses override) --

    def kernel_c(self, gamma, lam=0.0):
        """int_0^gamma p(x) exp(lam*x) dx; CDF blended with the MGF.

        ``lam`` may be an array (one kernel per element, of its shape);
        here that loops over the elements.
        """
        if gamma < 0:
            raise DomainError("gamma must be nonnegative")
        if np.ndim(lam):
            return np.array([self.kernel_c(gamma, v)
                             for v in np.ravel(lam).tolist()]
                            ).reshape(np.shape(lam))
        return self._quad_kernel(0.0, gamma, lam)

    def kernel_e(self, gamma, lam=0.0):
        """int_gamma^inf p(x) exp(lam*x) dx; tail blended with the MGF."""
        if gamma < 0:
            raise DomainError("gamma must be nonnegative")
        return self._quad_kernel(gamma, math.inf, lam)

    def kernel_mu(self, gamma_a, gamma_b, lam=0.0):
        """int_ga^gb p(x) exp(lam*x) dx over an ordered interval.

        Either limit may be an array (one kernel per broadcast pair);
        here that loops over the pairs.
        """
        if np.ndim(gamma_a) or np.ndim(gamma_b):
            a, b = np.broadcast_arrays(*_mu_limits(gamma_a, gamma_b))
            return np.array([self.kernel_mu(x, y, lam) for x, y in
                             zip(a.ravel().tolist(), b.ravel().tolist())]
                            ).reshape(a.shape)
        if gamma_a < 0 or gamma_b < gamma_a:
            raise DomainError("need 0 <= gamma_a <= gamma_b")
        return self._quad_kernel(gamma_a, gamma_b, lam)

    # -- shared quadrature plumbing --

    def _check_convergence(self, lam):
        # The largest real part, for an array of lam.
        re = float(np.max(np.real(lam)))
        if re >= self.abscissa:
            raise DivergentIntegralError(
                f"kernel of {self.name} diverges for Re(lam)={re} >= "
                f"abscissa {self.abscissa}"
            )

    def _quad_kernel(self, lo, hi, lam):
        hi = min(hi, self.support_upper)
        if math.isinf(hi):
            self._check_convergence(lam)
        if lo >= hi:
            return 0j if _is_complex(lam) else 0.0
        re = lam.real if isinstance(lam, complex) else float(lam)
        im = lam.imag if isinstance(lam, complex) else 0.0

        def damped(x):
            # pdf first: in the far tail it underflows to 0 where the
            # bare exponential factor would overflow.
            p = self.pdf1(x)
            return p * math.exp(re * x) if p > 0.0 else 0.0
        if im == 0.0:
            val = _quad(damped, lo, hi)
            return complex(val) if _is_complex(lam) else val
        # Complex lam: real and imaginary parts integrated separately.
        if math.isinf(hi):
            # Fourier-weighted quadrature is the robust route on [lo, inf).
            quad = _this.integrate.quad
            rp = quad(damped, lo, hi, weight="cos", wvar=im,
                      epsabs=_QUAD_ABS, limit=300)[0]
            ip = quad(damped, lo, hi, weight="sin", wvar=im,
                      epsabs=_QUAD_ABS, limit=300)[0]
        else:
            rp = _quad(lambda x: damped(x) * math.cos(im * x), lo, hi)
            ip = _quad(lambda x: damped(x) * math.sin(im * x), lo, hi)
        return complex(rp, ip)


def _mu_limits(gamma_a, gamma_b):
    """Array limits of ``kernel_mu`` as floats, checked like scalar ones;
    each keeps its own shape."""
    a = np.asarray(gamma_a, dtype=float)
    b = np.asarray(gamma_b, dtype=float)
    if np.any(a < 0) or np.any(b < a):
        raise DomainError("need 0 <= gamma_a <= gamma_b")
    return a, b


def _quad(f, lo, hi, points=None):
    quad = _this.integrate.quad
    if points is not None and not math.isinf(hi):
        pts = sorted(p for p in points if lo < p < hi)
        return quad(f, lo, hi, epsabs=_QUAD_ABS, epsrel=_QUAD_REL,
                    limit=300, points=pts or None)[0]
    return quad(f, lo, hi, epsabs=_QUAD_ABS, epsrel=_QUAD_REL, limit=300)[0]


class Exponential(Distribution):
    """Exponential with mean ``gamma_bar`` (rate ``1/gamma_bar``)."""

    def __init__(self, gamma_bar):
        self.gamma_bar = _positive("gamma_bar", gamma_bar)
        self.rate = 1.0 / self.gamma_bar
        self.mean = self.gamma_bar
        self.abscissa = self.rate
        self.name = f"exponential(mean={self.gamma_bar:g})"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def sample(self, rng, size):
        # Inverse CDF on u uniform in (0, 1].
        u = 1.0 - rng.random(size)
        return -self.gamma_bar * np.log(u)

    # d = rate - lam below; every kernel is an expression in exp(-d*gamma).

    def kernel_c(self, gamma, lam=0.0):
        if gamma < 0:
            raise DomainError("gamma must be nonnegative")
        lam = np.asarray(lam) if np.ndim(lam) else _as_scalar(lam)
        a = self.rate
        d = a - lam
        if math.isinf(gamma):
            self._check_convergence(lam)
            return a / d
        if np.ndim(lam):
            return a * gamma * _em1_ratio_nodes(-d * gamma)
        return a * gamma * _em1_ratio(-d * gamma)

    def kernel_e(self, gamma, lam=0.0):
        if gamma < 0:
            raise DomainError("gamma must be nonnegative")
        lam = _as_scalar(lam)
        self._check_convergence(lam)
        a = self.rate
        d = a - lam
        if math.isinf(gamma):
            return 0j if _is_complex(lam) else 0.0
        if _is_complex(lam):
            return a * _cexp(-d * gamma) / d
        return a * math.exp(-d * gamma) / d

    def kernel_mu(self, gamma_a, gamma_b, lam=0.0):
        if np.ndim(gamma_a) or np.ndim(gamma_b):
            return self._mu_nodes(gamma_a, gamma_b, lam)
        if gamma_a < 0 or gamma_b < gamma_a:
            raise DomainError("need 0 <= gamma_a <= gamma_b")
        if math.isinf(gamma_b):
            return self.kernel_e(gamma_a, lam)
        return self.kernel_c(gamma_b, lam) - self.kernel_c(gamma_a, lam)

    def _mu_nodes(self, gamma_a, gamma_b, lam):
        # kernel_mu's formulas on arrays: e(ga) where gb is infinite,
        # c(gb) - c(ga) elsewhere.  Each limit's term is taken on its own
        # shape, so a scalar limit is evaluated once.
        a, b = _mu_limits(gamma_a, gamma_b)
        lam = _as_scalar(lam)
        d = self.rate - lam
        inf = np.isinf(b)
        b = np.where(inf, 0.0, b)
        out = (self.rate * b * _em1_ratio_nodes(-d * b)
               - self.rate * a * _em1_ratio_nodes(-d * a))
        if inf.any():
            self._check_convergence(lam)
            out = np.where(inf, self.rate * np.exp(-d * a) / d, out)
        return out


def _cexp(z):
    return complex(math.exp(z.real) * math.cos(z.imag),
                   math.exp(z.real) * math.sin(z.imag)) if isinstance(z, complex) else math.exp(z)


def _em1_ratio(w):
    """(exp(w) - 1) / w, stable near w = 0, for real or complex w."""
    if isinstance(w, complex):
        if abs(w) < 1e-8:
            return 1.0 + w / 2.0 + w * w / 6.0
        return (_cexp(w) - 1.0) / w
    if abs(w) < 1e-8:
        return 1.0 + w / 2.0 + w * w / 6.0
    return math.expm1(w) / w


def _em1_ratio_nodes(w):
    """:func:`_em1_ratio` on an array."""
    small = np.abs(w) < 1e-8
    safe = np.where(small, 1.0, w)
    if np.iscomplexobj(w):
        big = (np.exp(safe) - 1.0) / safe
    else:
        big = np.expm1(safe) / safe
    return np.where(small, 1.0 + w / 2.0 + w * w / 6.0, big)


class HalfNormal(Distribution):
    """|N(0, sigma^2)|; the MGF is entire so every kernel converges."""

    def __init__(self, sigma):
        self.sigma = _positive("sigma", sigma)
        self.mean = self.sigma * math.sqrt(2.0 / math.pi)
        self.abscissa = math.inf
        self.name = f"halfnormal(sigma={self.sigma:g})"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        s = self.sigma
        out = np.where(x >= 0,
                       math.sqrt(2.0 / math.pi) / s * np.exp(-np.square(np.maximum(x, 0.0)) / (2 * s * s)),
                       0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, erf(np.maximum(x, 0.0) / (self.sigma * math.sqrt(2))), 0.0)
        return out if out.ndim else float(out)

    def sample(self, rng, size):
        return self.sigma * np.abs(rng.standard_normal(size))

    # Closed forms via the scaled complementary error function
    # (``ordstat._special``, on numpy): with u = sigma*lam/sqrt(2) and
    # g = gamma/(sigma*sqrt(2)),
    #   c(inf, lam) = erfcx(-u)
    #   e(gamma, lam) = exp(lam*gamma - gamma^2/(2 sigma^2)) * erfcx(g - u)
    # erfcx keeps both expressions finite where erf alone overflows.  One
    # array form serves scalars too; ``_typed`` returns a float or complex
    # for a scalar lam.

    def kernel_c(self, gamma, lam=0.0):
        if gamma < 0:
            raise DomainError("gamma must be nonnegative")
        lam = np.asarray(lam) if np.ndim(lam) else _as_scalar(lam)
        total = erfcx(-(self.sigma * lam / math.sqrt(2)))
        if math.isinf(gamma):
            return _typed(total, lam)
        return _typed(total - self._tail(gamma, lam), lam)

    def kernel_e(self, gamma, lam=0.0):
        if gamma < 0:
            raise DomainError("gamma must be nonnegative")
        lam = _as_scalar(lam)
        if math.isinf(gamma):
            return 0j if _is_complex(lam) else 0.0
        return _typed(self._tail(gamma, lam), lam)

    def kernel_mu(self, gamma_a, gamma_b, lam=0.0):
        if np.ndim(gamma_a) or np.ndim(gamma_b):
            return self._mu_nodes(gamma_a, gamma_b, lam)
        if gamma_a < 0 or gamma_b < gamma_a:
            raise DomainError("need 0 <= gamma_a <= gamma_b")
        lam = _as_scalar(lam)
        if math.isinf(gamma_b):
            return self.kernel_e(gamma_a, lam)
        return _typed(self._tail(gamma_a, lam) - self._tail(gamma_b, lam),
                      lam)

    def _mu_nodes(self, gamma_a, gamma_b, lam):
        # kernel_mu's formulas on arrays; the tail at an infinite gb is 0.
        # Each limit's tail is taken on its own shape, so a scalar limit
        # is evaluated once.
        a, b = _mu_limits(gamma_a, gamma_b)
        lam = _as_scalar(lam)
        inf = np.isinf(b)
        tail_b = np.where(inf, 0.0, self._tail(np.where(inf, 0.0, b), lam))
        return self._tail(a, lam) - tail_b

    def _tail(self, gamma, lam):
        """e(gamma, lam) on an array (or scalar) of gamma or of lam."""
        u = self.sigma * lam / math.sqrt(2)
        g = gamma / (self.sigma * math.sqrt(2))
        arg = lam * gamma - gamma * gamma / (2 * self.sigma ** 2)
        return np.exp(arg) * erfcx(g - u)


class CustomDistribution(Distribution):
    """Wrap arbitrary pdf/cdf callables; kernels fall back to quadrature.

    Parameters
    ----------
    pdf, cdf : callable
        Density and CDF on [0, inf), vectorized: each maps a numpy array to
        an array of its shape (else :class:`DomainError`).  ``cdf`` must be
        the exact integral of ``pdf`` (closed form, not numerically
        integrated), since downstream formulas raise it to large powers.
        The density must be smooth on (0, ``support_upper``); it may be
        singular at 0, like x^(a-1) with a >= 1/3.
    mean : float
        Used as the characteristic scale for inversion and sampling checks.
    abscissa : float
        Convergence abscissa of the MGF; ``inf`` if entire.
    support_upper : float, optional
        Upper end of the support if bounded.
    sampler : callable, optional
        ``sampler(rng, size) -> ndarray`` for Monte Carlo use.
    """

    def __init__(self, pdf, cdf, mean, abscissa, support_upper=math.inf,
                 sampler=None, name="custom"):
        self._pdf = pdf
        self._cdf = cdf
        self.mean = _positive("mean", mean)
        self.abscissa = float(abscissa)
        self.support_upper = float(support_upper)
        self._sampler = sampler
        self.name = name

    def pdf(self, x):
        return self._on_array(self._pdf, "pdf", x)

    def cdf(self, x):
        return self._on_array(self._cdf, "cdf", x)

    def _on_array(self, f, what, x):
        # The generic path evaluates whole node arrays at once; a callable
        # written for scalars fails there deep inside numpy.
        try:
            out = f(x)
            if np.shape(out) != np.shape(x):
                out = np.broadcast_to(out, np.shape(x)).copy()
        except (TypeError, ValueError) as err:
            raise DomainError(
                f"{self.name}: {what} must map a numpy array to an array of "
                f"its shape (an array of shape {np.shape(x)} gave: {err})"
            ) from err
        return out

    def sample(self, rng, size):
        if self._sampler is None:
            raise NotImplementedError(f"{self.name} does not define a sampler")
        return self._sampler(rng, size)
