"""Source distributions and their moment kernels.

Everything downstream is built from one integral of a nonnegative random
variable with density ``p``, and its two pinned forms:

* ``kernel_mu(ga, gb, lam)`` = int_ga^gb p(x) exp(lam*x) dx
* ``kernel_c(gamma, lam)``  = mu(0, gamma, lam)
* ``kernel_e(gamma, lam)``  = mu(gamma, inf, lam)

``lam`` may be complex; with an unbounded upper limit the integral exists
only for ``Re(lam) < abscissa``, the distribution's declared convergence
abscissa.  :class:`Distribution` writes the three kernels once, on arrays,
and each subclass supplies ``_mu``, the integral on arrays of checked
limits.  :class:`Exponential` and :class:`HalfNormal` carry closed forms;
:class:`CustomDistribution` integrates any density on the fixed rules of
``rules``, so that any density/CDF pair can be plugged into the generic
machinery (and the closed forms can be tested against an independent
route).

A subclass may also supply, in closed form,

* ``_pair(lo, hi, t)`` = int_lo^hi p(u) p(t-u) du,

the convolution of p with itself over [lo, hi].  ``generic_joint`` takes
it for every kernel-power inverse of power 2, and for the product of two
power-1 kernels; a distribution without one (``_pair`` is ``None``, as
for :class:`CustomDistribution`) runs a numeric convolution there.
:class:`Exponential` and :class:`HalfNormal` supply it.
"""

import math

import numpy as np

from ordstat import rules
from ordstat._special import erf, erfcx
from ordstat.errors import DivergentIntegralError, DomainError

__all__ = ["Distribution", "Exponential", "HalfNormal", "CustomDistribution"]

# A placeholder: perfbench's tracer swaps a counting proxy into this
# name, and no ordstat code reads it.
integrate = None


def _positive(name, value):
    """``value`` as a float, which must be positive and finite."""
    v = float(value)
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"{name} must be positive and finite, not {value!r}")
    return v


def _limits(gamma, message):
    """A kernel limit as a float array, which must be nonnegative."""
    g = np.asarray(gamma, dtype=float)
    if g.min(initial=0.0) < 0:
        raise DomainError(message)
    return g


def _weight(dist, x, lam):
    """p(x) exp(lam*x) on an array of x.  The pdf factor comes first: far
    in the tail it underflows to 0 where exp(Re(lam)*x) alone would
    overflow.  A complex lam takes the real ``exp(Re(lam)*x)`` times the
    phase ``exp(i Im(lam)*x)``: an imaginary part of 0 gives the bits of
    the real lam, where ``exp(lam*x)`` would be an ulp off."""
    p = dist.pdf(x)
    x = np.where(p == 0.0, 0.0, x)
    w = p * np.exp(np.real(lam) * x)
    return w * np.exp(1j * (np.imag(lam) * x)) if np.iscomplexobj(lam) else w


class Distribution:
    """A nonnegative random variable with moment-kernel evaluations.

    Subclasses must set ``name``, ``mean``, ``abscissa`` (supremum of
    ``Re(lam)`` for which ``E[exp(lam*X)]`` is finite; ``inf`` if entire),
    ``support_upper`` (``inf`` unless the density has bounded support) and
    ``breaks`` (the sorted points inside the support where the density
    jumps or has a kink), and implement ``pdf`` and ``cdf`` (vectorized
    over numpy arrays) and ``_mu``.  A subclass may supply ``_pair``, as
    it supplies ``_mu``: int_lo^hi p(u) p(t-u) du in closed form, on
    arrays of lo, hi and t that broadcast, with 0 <= lo and hi <= t, and
    exactly 0 where hi <= lo.  Where it is ``None``, the kernel-power
    inverses convolve the pdf numerically.
    """

    name = "distribution"
    mean = None
    abscissa = None
    support_upper = math.inf
    breaks = ()
    _pair = None

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    # Single-point forms.  No library code calls them; the tests and
    # perfbench's tracer do.

    def pdf1(self, x):
        return float(self.pdf(x))

    def cdf1(self, x):
        return float(self.cdf(x))

    def sample(self, rng, size):
        """Draw ``size`` variates using the numpy generator ``rng``."""
        raise NotImplementedError(f"{self.name} does not define a sampler")

    # -- kernels --
    #
    # Limits and ``lam`` are scalars or arrays that broadcast: the result
    # has their common shape, or for scalars is a float, or a complex where
    # ``lam`` has a nonzero imaginary part.

    def kernel_c(self, gamma, lam=0.0):
        """int_0^gamma p(x) exp(lam*x) dx; CDF blended with the MGF."""
        return self._kernel(0.0, _limits(gamma, "gamma must be nonnegative"),
                            lam)

    def kernel_e(self, gamma, lam=0.0):
        """int_gamma^inf p(x) exp(lam*x) dx; tail blended with the MGF."""
        return self._kernel(_limits(gamma, "gamma must be nonnegative"),
                            math.inf, lam)

    def kernel_mu(self, gamma_a, gamma_b, lam=0.0):
        """int_ga^gb p(x) exp(lam*x) dx over an ordered interval."""
        message = "need 0 <= gamma_a <= gamma_b"
        a, b = _limits(gamma_a, message), np.asarray(gamma_b, dtype=float)
        if (b < a).any():
            raise DomainError(message)
        return self._kernel(a, b, lam)

    def _kernel(self, a, b, lam):
        # What the three kernels share: the limits clamped to the support,
        # the convergence check of an unbounded interval, and the type of
        # a scalar result.
        if self.support_upper < math.inf:
            b = np.minimum(b, self.support_upper)
            a = np.minimum(a, b)
        if np.ndim(lam):
            lam = np.asarray(lam)
        else:
            lam = complex(lam)
            lam = lam if lam.imag else lam.real
        if self.abscissa < math.inf and np.isinf(b).any():
            self._check_convergence(lam)
        out = self._mu(a, b, lam)
        if np.ndim(out):
            return out
        return complex(out) if isinstance(lam, complex) else float(out)

    def _mu(self, a, b, lam):
        """The kernel on float (array) limits with ``a <= b``, within the
        support, and ``lam`` a float, a complex or an array."""
        raise NotImplementedError

    def _check_convergence(self, lam):
        # The largest real part, for an array of lam.
        re = float(np.asarray(lam).real.max())
        if re >= self.abscissa:
            raise DivergentIntegralError(
                f"kernel of {self.name} diverges for Re(lam)={re} >= "
                f"abscissa {self.abscissa}"
            )


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
        # Inverse CDF on u uniform in (0, 1], in place: the bits of
        # -gamma_bar * log(1 - u) with no temporary.
        u = rng.random(size)
        np.subtract(1.0, u, out=u)
        np.log(u, out=u)
        u *= -self.gamma_bar
        return u

    def _mu(self, a, b, lam):
        # With d = rate - lam, c(g) = rate * g * (exp(-d*g) - 1) / (-d*g)
        # and e(g) = rate * exp(-d*g) / d; mu is e(a) where b is infinite
        # and c(b) - c(a) elsewhere.  Each limit's term is taken on its own
        # shape, and neither a scalar infinite b nor c(0) = 0 is evaluated.
        d = self.rate - lam
        if not np.ndim(b) and b == math.inf:
            if not np.ndim(a) and a == 0.0:
                return self.rate / d
            return self.rate * np.exp(-d * a) / d
        inf = np.isinf(b)
        b = np.where(inf, 0.0, b)
        out = self.rate * b * _exprel(-d * b)
        if np.ndim(a) or a:
            out = out - self.rate * a * _exprel(-d * a)
        if inf.any():
            out = np.where(inf, self.rate * np.exp(-d * a) / d, out)
        return out

    def _pair(self, lo, hi, t):
        # p(u) p(t-u) is rate^2 exp(-rate*t) all over [0, t].
        r = self.rate
        return _pair_on(lambda lo, hi, t: r * np.exp(-r * t) * r * (hi - lo),
                        lo, hi, t)


def _pair_on(f, lo, hi, t):
    """``f(lo, hi, t)`` on 1-d arrays of the elements with hi > lo, and 0
    elsewhere (nan limits among them); lo, hi and t are arrays (or
    scalars) that broadcast, with 0 <= lo and hi <= t where hi > lo."""
    lo, hi, t = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                      for v in (lo, hi, t)))
    shape = lo.shape
    lo, hi, t = (v.ravel() for v in (lo, hi, t))
    live = hi > lo
    if live.all():
        return f(lo, hi, t).reshape(shape)
    out = np.zeros(lo.size)
    out[live] = f(lo[live], hi[live], t[live])
    return out.reshape(shape)


def _exprel(w):
    """(exp(w) - 1) / w on an array, stable near w = 0, real or complex."""
    small = np.abs(w) < 1e-8
    safe = np.where(small, 1.0, w)
    if np.iscomplexobj(w):
        big = (np.exp(safe) - 1.0) / safe
    else:
        big = np.expm1(safe) / safe
    return np.where(small, 1.0 + w / 2.0 + w * w / 6.0, big)


# The half-normal pair on [A, B] with 0 <= A < B: up to a width
# (B - A)(A + B + 1) of _PAIR_SPREAD, the Gauss-Legendre rule of
# _PAIR_NODES nodes is within 2e-16 of the integral of e^-x^2 (against
# 40-digit mpmath, A from 0 to 100); beyond it the erfc difference
# cancels by a factor of at most about 1.6.
_PAIR_SPREAD = 1.0
_PAIR_NODES = 8
_SQRTPI = math.sqrt(math.pi)


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
        x = rng.standard_normal(size)
        np.abs(x, out=x)
        x *= self.sigma
        return x

    def _mu(self, a, b, lam):
        return self._tail(a, lam) - self._tail(b, lam)

    def _tail(self, gamma, lam):
        """e(gamma, lam), by the scaled complementary error function
        (``ordstat._special``, on numpy): with u = sigma*lam/sqrt(2) and
        g = gamma/(sigma*sqrt(2)),
          e(gamma, lam) = exp(lam*gamma - gamma^2/(2 sigma^2)) * erfcx(g - u),
        which erfcx keeps finite where erf alone overflows; c(inf, lam) is
        e(0, lam) = erfcx(-u).  e(inf, lam) is 0 by definition."""
        if not np.ndim(gamma) and gamma == math.inf:
            return 0.0
        u = self.sigma * lam / math.sqrt(2)
        if not np.ndim(gamma) and gamma == 0.0:
            return erfcx(-u)
        inf = np.isinf(gamma)
        gamma = np.where(inf, 0.0, gamma)
        g = gamma / (self.sigma * math.sqrt(2))
        arg = lam * gamma - gamma * gamma / (2 * self.sigma ** 2)
        return np.where(inf, 0.0, np.exp(arg) * erfcx(g - u))

    def _pair(self, lo, hi, t):
        return _pair_on(self._pair_live, lo, hi, t)

    def _pair_live(self, lo, hi, t):
        """``_pair`` on 1-d arrays with 0 <= lo < hi <= t.

        p(u) p(t-u) = 2/(pi sigma^2) exp(-q - x^2) with q = (t/2sigma)^2
        and x = (u - t/2)/sigma, so the pair is
        exp(-q) (erf B - erf A)/(sigma sqrt(pi)) for x from A to B.  Each
        element takes one of three forms, on its own elements only:

        * A < 0 < B: erf B - erf A, a sum of two positive terms;
        * A and B on one side of 0 (mirrored to 0 <= A < B, e^-x^2 being
          even), with (B - A)(A + B + 1) above ``_PAIR_SPREAD``: the erfc
          difference exp(-q-A^2) erfcx(A) - exp(-q-B^2) erfcx(B), which
          cancels there by a factor of at most about 1.6;
        * the rest, narrow overlaps among them: the ``_PAIR_NODES``-node
          Gauss-Legendre rule of exp(-q - x^2) on [A, B], whose width is
          taken from hi - lo itself.
        """
        s = self.sigma
        q = 0.5 * t
        a, b = lo - q, hi - q
        a /= s
        b /= s
        q /= s
        q *= q
        out = np.empty_like(q)
        mid = (a < 0.0) & (b > 0.0)
        i = np.flatnonzero(mid)
        e = erf(b[i])
        e -= erf(a[i])
        e *= np.exp(-q[i])
        out[i] = e / (s * _SQRTPI)
        if i.size == out.size:
            return out
        width = (hi - lo) / s
        gauss = ~mid & (width * (np.abs(a + b) + 1.0) <= _PAIR_SPREAD)
        i = np.flatnonzero(gauss)
        x, _, w = rules._gauss01(_PAIR_NODES)
        x = a[i, None] + width[i, None] * x
        out[i] = (2.0 / (math.pi * s) * width[i]
                  * rules._row_sums(np.exp(-q[i, None] - x * x), w))
        i = np.flatnonzero(~mid & ~gauss)
        lo, hi = np.abs(a[i]), np.abs(b[i])
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        out[i] = (np.exp(-q[i] - lo * lo) * erfcx(lo)
                  - np.exp(-q[i] - hi * hi) * erfcx(hi)) / (s * _SQRTPI)
        return out


# The finite part of an unbounded custom kernel reaches past its lower
# limit to the first of these distances, in means, beyond which the weight
# p(x) exp(Re(lam)*x) stays under _FLOOR of its largest value there, and
# at least to the last break: the mapped tail is smooth only if no break
# lies in it.
_PROBES = np.exp2(np.arange(-8.0, 48.0, 0.25))
_FLOOR = 2.0 ** -53
# Knots per row, at most: a row that would need more has the rest of its
# finite part as one segment, whose rules run out of nodes there and warn.
_MAX_KNOTS = 2 ** 14
# The relative target of a custom kernel.  A Gauss-Kronrod pair that
# agrees to 1e-8 leaves its Kronrod value good to about 1e-12 on a smooth
# segment; to 1e-10, about 1e-14.
_KERNEL_REL = 1e-10
# The largest node of the mapped tail, short of u = 1 (x = inf).
_LAST_U = 1.0 - 2.0 ** -53


class CustomDistribution(Distribution):
    """Wrap arbitrary pdf/cdf callables; kernels run on fixed rules.

    Parameters
    ----------
    pdf, cdf : callable
        Density and CDF on [0, inf), vectorized: each maps a numpy array to
        an array of its shape (else :class:`DomainError`).  ``cdf`` must be
        the exact integral of ``pdf`` (closed form, not numerically
        integrated), since downstream formulas raise it to large powers.
        The density may be singular at 0, like x^(a-1) with a >= 1/3.
    mean : float
        Used as the characteristic scale for inversion and sampling checks.
    abscissa : float
        Convergence abscissa of the MGF, nonnegative; ``inf`` if entire.
    support_upper : float, optional
        Upper end of the support if bounded, positive.
    breaks : sequence of float, optional
        The points in (0, ``support_upper``) where the density jumps or has
        a kink.  Nothing searches for them: a jump or kink that is not
        declared slows the rules that meet it, or goes unseen.
    sampler : callable, optional
        ``sampler(rng, size) -> ndarray`` for Monte Carlo use, a new
        writable float array of shape ``size``.  ``mc_oracle`` calls it
        with ``size = (rows, K)`` on consecutive row blocks of one
        stream's generator ``rng``.  A sampler that draws row-major and in
        sequence, as numpy's generator methods do, gives the same samples
        whatever the block size.

    Each kernel is one ``rules._cut`` over the segments of every broadcast
    ``(ga, gb, lam)``: knots every half period ``pi/|Im(lam)|`` of
    ``exp(lam*x)``, each segment split at the breaks inside it, and for an
    unbounded one a last segment on [0, 1) mapped by
    ``x = end + L*u/(1 - u)``, past the reach of its weight and the last
    break.  Each segment runs the Gauss-Kronrod pairs of
    ``rules._segments`` as an integral of its own, going on to tanh-sinh
    rules at a singular end.  The kernel-power inverses of
    ``generic_joint`` cut their rules at the breaks too.  A kernel's value
    is the same alone or broadcast with others, and a complex ``lam`` with
    an imaginary part of 0 gives the bits of the real one (``_weight``).
    """

    def __init__(self, pdf, cdf, mean, abscissa, support_upper=math.inf,
                 sampler=None, name="custom", breaks=()):
        self._pdf = pdf
        self._cdf = cdf
        self.mean = _positive("mean", mean)
        self.abscissa = float(abscissa)
        if not self.abscissa >= 0.0:
            raise DomainError(
                f"abscissa must be nonnegative, not {abscissa!r}")
        self.support_upper = float(support_upper)
        if not self.support_upper > 0.0:
            raise DomainError(
                f"support_upper must be positive, not {support_upper!r}")
        self.breaks = tuple(sorted(set(map(float, breaks))))
        if not all(0.0 < x < self.support_upper for x in self.breaks):
            raise DomainError(f"breaks must lie in (0, {support_upper!r}), "
                              f"not {breaks!r}")
        self._sampler = sampler
        self.name = name

    def _mu(self, a, b, lam):
        shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(lam))
        a, b, lam = (np.broadcast_to(v, shape).ravel() for v in (a, b, lam))
        out = np.zeros(a.size, dtype=np.result_type(lam, 1.0))
        live = np.flatnonzero(a < b)
        a, b, lam = a[live], b[live], lam[live]
        tail = np.isinf(b)
        end = b.copy()
        end[tail] = np.maximum(a[tail] + self._reach(a[tail],
                                                     np.real(lam[tail])),
                               max(self.breaks, default=0.0))
        # Row i has knots every half period of exp(lam*x) on [a, end], and
        # where its b is infinite one more segment, [end, end + 1], on
        # which x = end + (end - a) * u / (1 - u) for u = v - end.
        im = np.abs(np.imag(lam))
        step = np.pi / np.where(im > 0.0, im, math.inf)
        knots = np.minimum((end - a) * im / np.pi, _MAX_KNOTS).astype(int)
        per = knots + 1 + tail
        row = np.repeat(np.arange(a.size), per)
        k = np.arange(row.size) - np.repeat(np.cumsum(per) - per, per)
        s, mapped = end[row], k > knots[row]

        def knot(j):
            return np.minimum(a[row] + step[row] * j, s)

        lo = np.where(mapped, s, knot(k))
        hi = np.where(k < knots[row], knot(k + 1), s + mapped)
        for x in self.breaks:
            # A segment that holds a break ends there, and one more starts.
            cut = (lo < x) & (x < hi)
            lo, hi, row = (np.concatenate(v) for v in (
                (lo, np.full(cut.sum(), x)), (np.where(cut, x, hi), hi[cut]),
                (row, row[cut])))
        scale = end - a

        def f(v, row):
            s = end[row]
            x, jac = rules._semi_infinite(s, scale[row],
                                          np.minimum(v - s, _LAST_U), 1.0)
            past = v > s
            return (_weight(self, np.where(past, x, v), lam[row])
                    * np.where(past, jac, 1.0))

        out[live] = rules._cut(f, lo, hi, row, a.size,
                               epsrel=_KERNEL_REL)
        return out.reshape(shape)

    def _reach(self, a, re):
        """The distance past each ``a`` of the finite part of its kernel."""
        d = self.mean * _PROBES
        w = np.abs(_weight(self, a[:, None] + d, re[:, None]))
        big = w > _FLOOR * w.max(axis=1, initial=0.0)[:, None]
        last = np.where(big.any(axis=1),
                        d.size - np.argmax(big[:, ::-1], axis=1), 0)
        return d[np.minimum(last, d.size - 1)]

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
