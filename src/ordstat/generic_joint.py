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

Two structural facts keep the inversion tractable:

* A kernel power's inverse has known support for any distribution on
  [0, inf): ``e(g, -s)^j`` carries ``exp(-j*g*s)`` so its inverse vanishes
  below ``j*g``; the inverses of ``c(g, -s)^j`` and ``mu(ga, gb, -s)^j``
  live on ``[0, j*g]`` and ``[j*ga, j*gb]``.  Evaluators return 0 outside
  these regions without touching the inverter.
* A power-1 kernel is itself a finite Laplace transform of a pdf
  restriction, so its inverse is ``pdf(t)`` times the support indicator
  and needs no numeric inversion.  Higher powers reduce to it through the
  convolution theorem: a power splits as a product of two lower powers,
  so its inverse is a finite convolution of theirs, recursively, with the
  pdf restriction at the base.  This matters beyond speed: an inverse of
  power ``j`` is only ``C^(j-2)`` at its support edges, where Bromwich-line
  summation converges worst in exactly the absolute terms that a relative
  error target cannot afford, and the reduction quadratures both place
  nodes arbitrarily close to those edges and probe regions where the
  density is orders of magnitude below its scale.

The Bromwich-line inverter therefore handles only the total-sum density,
whose transform is an entire MGF power with no support edge in sight; every
kernel-power inverse is a short stack of adaptive finite convolutions with
relative error control end to end.
"""

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


def _conv_pair(fa, fb, sup_a, sup_b, t, knots_a=(), knots_b=()):
    """Inverse of a transform product at t: the convolution of the factor
    inverses over the overlap of their supports.

    ``knots_a``/``knots_b`` list interior points where a factor is not
    smooth (power inverses are piecewise on a lattice of support-edge
    sums); handing them to the integrator keeps the kinks from eating the
    accuracy budget.
    """
    lo = max(sup_a[0], t - sup_b[1])
    hi = min(sup_a[1], t - sup_b[0])
    if not hi > lo:
        return 0.0
    pts = sorted({p for p in knots_a if lo < p < hi} |
                 {t - q for q in knots_b if lo < t - q < hi})
    val, _ = integrate.quad(lambda u: fa(u) * fb(t - u), lo, hi,
                            epsabs=1e-13, epsrel=1e-11, limit=60,
                            points=pts or None)
    return val


def _lattice(step, n):
    """Interior kink lattice of an n-fold power inverse with edge ``step``."""
    return tuple(j * step for j in range(1, n))


def _mu_lattice(ga, gb, n):
    return tuple(j * ga + (n - j) * gb for j in range(1, n))


def _inv_c_pow(dist, gamma, n, t):
    """Inverse of c(gamma, -s)^n at t; supported on [0, n*gamma]."""
    if t < 0 or t > n * gamma:
        return 0.0
    if n == 1:
        return dist.pdf1(t)
    if n == 2:
        return _conv_self(dist, max(0.0, t - gamma), min(gamma, t), t)
    h = n // 2
    return _conv_pair(lambda u: _inv_c_pow(dist, gamma, h, u),
                      lambda v: _inv_c_pow(dist, gamma, n - h, v),
                      (0.0, h * gamma), (0.0, (n - h) * gamma), t,
                      knots_a=_lattice(gamma, h),
                      knots_b=_lattice(gamma, n - h))


def _inv_e_pow(dist, gamma, n, t):
    """Inverse of e(gamma, -s)^n at t; supported on [n*gamma, inf)."""
    if t < n * gamma:
        return 0.0
    if n == 1:
        return dist.pdf1(t)
    if n == 2:
        return _conv_self(dist, gamma, t - gamma, t)
    h = n // 2
    return _conv_pair(lambda u: _inv_e_pow(dist, gamma, h, u),
                      lambda v: _inv_e_pow(dist, gamma, n - h, v),
                      (h * gamma, math.inf), ((n - h) * gamma, math.inf), t)


def _inv_mu_pow(dist, ga, gb, n, t):
    """Inverse of mu(ga, gb, -s)^n at t; supported on [n*ga, n*gb]."""
    if t < n * ga or t > n * gb:
        return 0.0
    if n == 1:
        return dist.pdf1(t)
    if n == 2:
        return _conv_self(dist, max(ga, t - gb), min(gb, t - ga), t)
    h = n // 2
    return _conv_pair(lambda u: _inv_mu_pow(dist, ga, gb, h, u),
                      lambda v: _inv_mu_pow(dist, ga, gb, n - h, v),
                      (h * ga, h * gb), ((n - h) * ga, (n - h) * gb), t,
                      knots_a=_mu_lattice(ga, gb, h),
                      knots_b=_mu_lattice(ga, gb, n - h))


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


def t2_jpdf(dist, K, m, z1, z2, digits=8):
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
    if m == 1:
        inv = _inv_c_pow(dist, z1, K - 1, z2)
    elif m == K:
        inv = _inv_e_pow(dist, z1, K - 1, z2)
    else:
        nc, ne = K - m, m - 1
        inv = _conv_pair(lambda u: _inv_c_pow(dist, z1, nc, u),
                         lambda v: _inv_e_pow(dist, z1, ne, v),
                         (0.0, nc * z1), (ne * z1, math.inf), z2,
                         knots_a=_lattice(z1, nc))
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
        head = _inv_e_pow(self.dist, g, self.m - 1, z1 - g)
        if head == 0.0:
            return 0.0
        tail = _inv_c_pow(self.dist, g, self.K - self.m, z2)
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
        return self._pref * weight * _inv_e_pow(self.dist, v, self.Ks - 1, w)


class FineOneMidLast(_Fine):
    """Joint of (rank-1 variable, sum of ranks 2..Ks-1, rank-Ks variable)."""

    def __init__(self, K, Ks, dist):
        super().__init__(K, Ks, dist, K - Ks, Ks - 2)

    def __call__(self, z1, z3, z4):
        w = self._last(z4)
        if w == 0.0:
            return 0.0
        return (self._pref * self.dist.pdf1(z1) * w
                * _inv_mu_pow(self.dist, z4, z1, self.Ks - 2, z3))


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
        head = _inv_e_pow(d, z2, m - 1, z1)
        if head == 0.0:
            return 0.0
        mid = _inv_mu_pow(d, z4, z2, self.Ks - m - 1, z3)
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
                * _inv_e_pow(self.dist, z2, self.Ks - 2, z1))


# The fine density of each T5 case, for ``reductions.t5_fine``.
_T5_FINES = {"a": FineOneMidLast, "b": FineHeadMidLast,
             "c": FineHeadNextLast, "d": FineLastHead}


def t3_jpdf(dist, K, m, z1, z2, digits=8):
    """Joint density of (sum of the m largest, sum of the K-m smallest)."""
    if not 1 <= m <= K - 1:
        raise DomainError("need 1 <= m <= K-1")
    if not reductions.t3_support(K, m, z1, z2):
        return 0.0
    if m == 1:
        # The head is one variable; exp(-s*g) collapses the outer integral
        # and the pair is the rank-1 one-vs-rest joint.
        return t2_jpdf(dist, K, 1, z1, z2, digits=digits)
    return reductions.t3(FineHeadRankTail(K, m, dist), K, m, z1, z2)


def t4_pdf(dist, K, Ks, x, digits=8):
    """Density of the sum of the ``Ks`` largest of ``K``."""
    if not 1 <= Ks <= K:
        raise DomainError("need 1 <= Ks <= K")
    if x < 0:
        return 0.0
    if Ks == 1:
        return K * dist.pdf1(x) * dist.cdf1(x) ** (K - 1)
    return reductions.t4(FineLastHead(K, Ks, dist), Ks, x)


def t5_jpdf(dist, K, Ks, m, x, y, digits=8):
    """Joint density of (rank-m variable, sum of the other best Ks-1)."""
    if not (2 <= Ks <= K and 1 <= m <= Ks):
        raise DomainError("need Ks >= 2 and 1 <= m <= Ks <= K")
    fine = reductions.t5_fine(_T5_FINES, K, Ks, m, dist)
    return reductions.t5(fine, Ks, m, x, y)


def t6_jpdf(dist, K, Ks, m, x, y, digits=8):
    """Joint density of (sum of ranks 1..m, sum of ranks m+1..Ks)."""
    if not (1 <= m < Ks <= K):
        raise DomainError("need 1 <= m < Ks <= K")
    fine = reductions.t6_fine(_T5_FINES, K, Ks, m, dist)
    return reductions.t6(fine, Ks, m, x, y)


def resolve(shape, dist, method="auto", digits=8):
    """Density of a theorem shape for ``dist``, and its dimension.

    ``shape`` is a ``partition.TheoremMatch``.  ``method`` ``"exact"`` takes
    the closed forms of ``exact_exp`` (exponential only), ``"generic"`` this
    module's evaluators at ``digits``, and ``"auto"`` the exact path where it
    applies.  The density takes its coordinates in the caller's order: a
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
        pdf = {"T1": t1_pdf, "T2": t2_jpdf, "T3": t3_jpdf, "T4": t4_pdf,
               "T5": t5_jpdf, "T6": t6_jpdf}[fam]

        def fn(*z):
            return pdf(dist, *args, *z, digits=digits)
    else:
        raise DomainError(f"unknown method {method!r}")
    dim = 1 if fam in ("T1", "T4") else 2

    def density(*z):
        if len(z) != dim:
            raise DomainError(f"{shape.id} expects {dim} coordinate(s)")
        return fn(*z[::-1]) if shape.swap else fn(*z)

    return density, dim
