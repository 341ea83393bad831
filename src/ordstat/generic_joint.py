"""Joint densities of ordered partial sums for arbitrary distributions.

This is the generic path of the paper's framework.  The fine joint
densities (``Fine*``) are products of the pdf, a CDF power and the inverse
Laplace transforms of kernel powers; ``reductions`` integrates them to the
theorem families T3-T6, with the same limits, knots and rules as the
exponential closed forms of ``exact_exp``.  These fine densities are not
polynomial between knots, so every rule compares n and 2n nodes.  T1 (the
total sum) inverts an MGF power on a Bromwich line, T2 convolves kernel-power
inverses, and ``resolve`` dispatches a theorem shape to either path.
Multidimensional numerical inversion is never attempted: the error budget
stays one-dimensional by construction.

Every kernel is ``mu(a, b, lam)``, the integral of ``p(x) exp(lam*x)`` over
[a, b], with its limits pinned: ``c(g, lam) = mu(0, g, lam)`` and
``e(g, lam) = mu(g, inf, lam)``.  So one function, ``_inv_pow``, gives the
inverse Laplace transform of every kernel power ``mu(lo, hi, -s)^n``, and two
structural facts keep it tractable for any distribution on [0, inf):

* The inverse is the n-fold self-convolution of the pdf restricted to
  [lo, hi], so it lives on [n*lo, n*hi].  Evaluators return 0 outside
  without touching an integrator.
* A power-1 kernel is itself a finite Laplace transform of a pdf
  restriction, so its inverse is ``pdf(t)`` on its support and needs no
  numeric inversion.  Higher powers reduce to it through the convolution
  theorem: ``mu^n`` splits as ``mu^h * mu^(n-h)``, so its inverse is a
  finite convolution of theirs, recursively, with the pdf restriction at the
  base.  The inverse of power n is only ``C^(n-2)`` on the lattice
  ``j*lo + (n-j)*hi``, which the convolutions hand to the integrator.  This
  matters beyond speed: Bromwich-line summation converges worst at such
  edges, in exactly the absolute terms that a relative error target cannot
  afford, and the reduction quadratures both place nodes arbitrarily close
  to those edges and probe regions where the density is orders of magnitude
  below its scale.

The Bromwich-line inverter therefore handles only the total-sum density,
whose transform is an entire MGF power with no support edge in sight; every
kernel-power inverse is a short stack of adaptive finite convolutions with
relative error control end to end.
"""

import functools
import math

import numpy as np
from scipy import integrate

from ordstat import exact_exp, reductions
from ordstat.distributions import Exponential
from ordstat.errors import ConvergenceError, DomainError
from ordstat.ilt import TransformFn, invert_numeric

__all__ = [
    "resolve",
    "t1_pdf",
    "t2_jpdf",
    "t3_jpdf",
    "t4_pdf",
    "t5_jpdf",
    "t6_jpdf",
]

def _tf_abscissa(dist):
    # Kernel transforms in s are analytic right of -abscissa; entire when
    # the MGF exists everywhere.
    absc = -dist.abscissa
    return absc if math.isfinite(absc) else 0.0


# The inverter's convergence flag demands ~10^-digits absolute; deep in a
# tail the total-sum density sits below that, so an unconverged attempt is
# still accepted when its estimate is small absolutely or relative to the
# value itself.
_ILT_ACCEPT_ABS = 1e-6
_ILT_ACCEPT_REL = 1e-5


def _ilt(dist, f, t, digits, scale):
    tf = TransformFn(f, abscissa=_tf_abscissa(dist), scale_hint=scale)
    res = invert_numeric(tf, t, target_digits=digits)
    if not res.converged:
        est = res.error_estimate
        if est > _ILT_ACCEPT_ABS and est > _ILT_ACCEPT_REL * abs(res.value):
            raise ConvergenceError(
                f"inverse transform did not converge at t={t!r} "
                f"(method {res.method}, error estimate {est:.2e})")
    return res.value


def _conv_self(dist, lo, hi, t):
    """Integral of pdf(x) * pdf(t - x) over [lo, hi], the power-2 inverse."""
    if not hi > lo:
        return 0.0
    p = dist.pdf1
    val, _ = integrate.quad(lambda x: p(x) * p(t - x), lo, hi,
                            epsabs=1e-13, epsrel=1e-11, limit=60)
    return val


def _conv_pair(dist, a, b, t):
    """Inverse at t of the product of two kernel powers, ``a`` and ``b``
    each ``(lo, hi, n)`` for mu(lo, hi, -s)^n: the convolution of their
    inverses over the overlap of their supports.

    The lattice of each factor goes to the integrator as interior points:
    a power inverse is not smooth there, and handing the kinks over keeps
    them from eating the accuracy budget.  Infinite lattice points (an upper
    limit of inf) fall outside every finite overlap and drop out.
    """
    (la, ha, na), (lb, hb, nb) = a, b
    lo = max(na * la, t - nb * hb)
    hi = min(na * ha, t - nb * lb)
    if not hi > lo:
        return 0.0
    pts = sorted({p for p in _lattice(la, ha, na) if lo < p < hi} |
                 {t - q for q in _lattice(lb, hb, nb) if lo < t - q < hi})
    val, _ = integrate.quad(
        lambda u: (_inv_pow(dist, la, ha, na, u)
                   * _inv_pow(dist, lb, hb, nb, t - u)),
        lo, hi, epsabs=1e-13, epsrel=1e-11, limit=60, points=pts or None)
    return val


def _lattice(lo, hi, n):
    """Interior kink lattice of the inverse of mu(lo, hi, -s)^n."""
    return tuple(j * lo + (n - j) * hi for j in range(1, n))


def _inv_pow(dist, lo, hi, n, t):
    """Inverse of mu(lo, hi, -s)^n at t; supported on [n*lo, n*hi].

    c(g, -s) is mu(0, g, -s) and e(g, -s) is mu(g, inf, -s).
    """
    if t < n * lo or t > n * hi:
        return 0.0
    if n == 1:
        return dist.pdf1(t)
    if n == 2:
        return _conv_self(dist, max(lo, t - hi), min(hi, t - lo), t)
    h = n // 2
    return _conv_pair(dist, (lo, hi, h), (lo, hi, n - h), t)


def t1_pdf(dist, K, z, digits=8):
    """Density of the sum of all ``K`` variables."""
    if K < 1:
        raise DomainError("need K >= 1")
    if z < 0:
        return 0.0
    if K == 1:
        return dist.pdf1(z)

    def f(s):
        return dist.kernel_c(math.inf, -s) ** K

    return _ilt(dist, f, z, digits, K * dist.mean)


def t2_jpdf(dist, K, m, z1, z2):
    """Joint density of (rank-m variable, sum of the other K-1)."""
    if not 1 <= m <= K or K < 2:
        raise DomainError("need K >= 2 and 1 <= m <= K")
    if z1 < 0 or z2 < 0:
        return 0.0
    if m == 1 and z2 > (K - 1) * z1:
        return 0.0
    if m >= 2 and z2 < (m - 1) * z1:
        return 0.0
    pref = math.factorial(K) / (math.factorial(K - m) * math.factorial(m - 1))
    # The K-m variables below z1 give a c-power, the m-1 above it an
    # e-power.
    below, above = (0.0, z1, K - m), (z1, math.inf, m - 1)
    if m == 1:
        inv = _inv_pow(dist, *below, z2)
    elif m == K:
        inv = _inv_pow(dist, *above, z2)
    else:
        inv = _conv_pair(dist, below, above, z2)
    return pref * dist.pdf1(z1) * inv


class _Fine:
    """A fine joint density of any distribution, evaluated point by point."""

    piecewise_polynomial = False

    def __init__(self, K, Ks, dist, *den):
        self.K, self.Ks, self.dist = K, Ks, dist
        self._pref = math.factorial(K) / math.prod(map(math.factorial, den))

    def _last(self, z4):
        """Density of the rank-Ks value z4 times the CDF power of the
        unselected ranks below it."""
        d = self.dist
        return (d.cdf1(z4) ** (self.K - self.Ks) if self.Ks < self.K
                else 1.0) * d.pdf1(z4)

    def values(self, *coords):
        """``__call__`` over coordinate arrays (or scalars) that broadcast."""
        cols = np.broadcast_arrays(*coords)
        flat = zip(*(c.ravel().tolist() for c in cols))
        return np.array([self(*z) for z in flat]).reshape(cols[0].shape)


class FineHeadRankTail(_Fine):
    """Joint of (sum of ranks 1..m, rank-m variable, sum of ranks m+1..K)."""

    def __init__(self, K, m, dist):
        super().__init__(K, K, dist, K - m, m - 1)
        self.m = m

    def __call__(self, z1, g, z2):
        # exp(-s*g) is the rank-m variable itself; shift the inversion
        # point instead of carrying the factor into the transform.
        head = _inv_pow(self.dist, g, math.inf, self.m - 1, z1 - g)
        if head == 0.0:
            return 0.0
        tail = _inv_pow(self.dist, 0.0, g, self.K - self.m, z2)
        return self._pref * self.dist.pdf1(g) * head * tail


class FineLastHead(_Fine):
    """Joint of (rank-Ks variable v, sum of ranks 1..Ks-1 w)."""

    def __init__(self, K, Ks, dist):
        super().__init__(K, Ks, dist, K - Ks, Ks - 1)

    def __call__(self, v, w):
        if v < 0 or w < (self.Ks - 1) * v:
            return 0.0
        weight = self._last(v)
        if weight == 0.0:
            return 0.0
        return self._pref * weight * _inv_pow(self.dist, v, math.inf,
                                              self.Ks - 1, w)


class FineOneMidLast(_Fine):
    """Joint of (rank-1 variable, sum of ranks 2..Ks-1, rank-Ks variable)."""

    def __init__(self, K, Ks, dist):
        super().__init__(K, Ks, dist, K - Ks, Ks - 2)

    def __call__(self, z1, z3, z4):
        w = self._last(z4)
        if w == 0.0:
            return 0.0
        return (self._pref * self.dist.pdf1(z1) * w
                * _inv_pow(self.dist, z4, z1, self.Ks - 2, z3))


class FineHeadMidLast(_Fine):
    """Joint of (sum of ranks 1..m-1, rank-m, sum of ranks m+1..Ks-1, rank-Ks)."""

    def __init__(self, K, Ks, m, dist):
        super().__init__(K, Ks, dist, K - Ks, m - 1, Ks - m - 1)
        self.m = m

    def __call__(self, z1, z2, z3, z4):
        w = self._last(z4)
        if w == 0.0:
            return 0.0
        d, m = self.dist, self.m
        head = _inv_pow(d, z2, math.inf, m - 1, z1)
        if head == 0.0:
            return 0.0
        mid = _inv_pow(d, z4, z2, self.Ks - m - 1, z3)
        return self._pref * d.pdf1(z2) * w * head * mid


class FineHeadNextLast(_Fine):
    """Joint of (sum of ranks 1..Ks-2, rank-(Ks-1) variable, rank-Ks variable)."""

    def __init__(self, K, Ks, dist):
        super().__init__(K, Ks, dist, K - Ks, Ks - 2)

    def __call__(self, z1, z2, z4):
        w = self._last(z4)
        if w == 0.0:
            return 0.0
        return (self._pref * self.dist.pdf1(z2) * w
                * _inv_pow(self.dist, z2, math.inf, self.Ks - 2, z1))


# The fine density of each T5 case, for ``reductions.t5_fine``.
_T5_FINES = {"a": FineOneMidLast, "b": FineHeadMidLast,
             "c": FineHeadNextLast, "d": FineLastHead}


def t3_jpdf(dist, K, m, z1, z2):
    """Joint density of (sum of the m largest, sum of the K-m smallest)."""
    if not 1 <= m <= K - 1:
        raise DomainError("need 1 <= m <= K-1")
    if not reductions.t3_support(K, m, z1, z2):
        return 0.0
    if m == 1:
        # The head is one variable; exp(-s*g) collapses the outer integral
        # and the pair is the rank-1 one-vs-rest joint.
        return t2_jpdf(dist, K, 1, z1, z2)
    return reductions.t3(FineHeadRankTail(K, m, dist), K, m, z1, z2)


def t4_pdf(dist, K, Ks, x):
    """Density of the sum of the ``Ks`` largest of ``K``."""
    if not 1 <= Ks <= K:
        raise DomainError("need 1 <= Ks <= K")
    if x < 0:
        return 0.0
    if Ks == 1:
        return K * dist.pdf1(x) * dist.cdf1(x) ** (K - 1)
    return reductions.t4(FineLastHead(K, Ks, dist), Ks, x)


def t5_jpdf(dist, K, Ks, m, x, y):
    """Joint density of (rank-m variable, sum of the other best Ks-1)."""
    if not (2 <= Ks <= K and 1 <= m <= Ks):
        raise DomainError("need Ks >= 2 and 1 <= m <= Ks <= K")
    fine = reductions.t5_fine(_T5_FINES, K, Ks, m, dist)
    return reductions.t5(fine, Ks, m, x, y)


def t6_jpdf(dist, K, Ks, m, x, y):
    """Joint density of (sum of ranks 1..m, sum of ranks m+1..Ks)."""
    if not (1 <= m < Ks <= K):
        raise DomainError("need 1 <= m < Ks <= K")
    fine = reductions.t6_fine(_T5_FINES, K, Ks, m, dist)
    return reductions.t6(fine, Ks, m, x, y)


def resolve(shape, dist, method="auto", digits=8):
    """Density of a theorem shape for ``dist``, and its dimension.

    ``shape`` is a ``partition.TheoremMatch``.  ``method`` ``"exact"`` takes
    the closed forms of ``exact_exp`` (exponential only), ``"generic"`` this
    module's evaluators, and ``"auto"`` the exact path where it applies.
    ``digits`` is the inversion target of generic T1, the only family that
    inverts numerically.  The density takes its coordinates in the caller's order: a
    swapped shape is evaluated with its arguments exchanged.
    """
    fam, K, Ks, m = shape.id[:2], shape.K, shape.Ks, shape.m
    args = {"T1": (K,), "T2": (K, m), "T3": (K, m), "T4": (K, Ks),
            "T5": (K, Ks, m), "T6": (K, Ks, m)}.get(fam)
    if args is None:
        raise DomainError(f"unknown evaluator id {shape.id!r}")
    if method == "auto":
        method = "exact" if isinstance(dist, Exponential) else "generic"
    if method == "exact":
        if not isinstance(dist, Exponential):
            raise DomainError("the exact path covers the exponential "
                              "distribution only; use --method generic")
        make = {"T1": exact_exp.pdf_sum_all,
                "T2": exact_exp.jpdf_one_vs_rest_allK,
                "T3": exact_exp.jpdf_headsum_vs_tailsum_allK,
                "T4": exact_exp.pdf_gsc_sum,
                "T5": exact_exp.jpdf_one_vs_rest_bestKs,
                "T6": exact_exp.jpdf_headsum_vs_tailsum_bestKs}[fam]
        fn = make(*args, dist.gamma_bar)
    elif method == "generic":
        pdf = {"T1": functools.partial(t1_pdf, digits=digits),
               "T2": t2_jpdf, "T3": t3_jpdf, "T4": t4_pdf,
               "T5": t5_jpdf, "T6": t6_jpdf}[fam]

        def fn(*z):
            return pdf(dist, *args, *z)
    else:
        raise DomainError(f"unknown method {method!r}")
    dim = 1 if fam in ("T1", "T4") else 2

    def density(*z):
        if len(z) != dim:
            raise DomainError(f"{shape.id} expects {dim} coordinate(s)")
        return fn(*z[::-1]) if shape.swap else fn(*z)

    return density, dim
