"""Closed-form densities for sums of ordered i.i.d. exponential variables.

Rank the variables decreasingly (rank 1 largest).  For an exponential
source every transform-domain object downstream of the kernel powers is a
finite sum of shifted poles, so each joint density here reduces to sums of
``(u - threshold)^power`` pieces times a common ``exp(-rate * total)``
factor, with at most one or two remaining finite integrals whose
integrands are piecewise smooth between computable knots: the points where
a step term switches on or an inner limit changes form.

Those integrals use fixed Gauss-Legendre rules on every knot segment, with
all of a rule's nodes evaluated in one batched call (``_gauss_knots``):

* Exact-degree rules.  The inner integrals of T3 (head-tail, all K) and of
  T5b and T6 (best Ks, two nested integrals) have integrands that are
  polynomials between knots, of degree ``K-3`` for T3 and ``Ks-4`` for T5b
  and T6: a step sum times a power of the head sum.  The
  ``ceil((deg+1)/2)``-node rule integrates them exactly, so they take that
  rule alone, with no error estimate; what remains is the roundoff of the
  step sums.
* n/2n rules.  The outer integrals of T5b and T6, and the single integrals
  of T4 (best-Ks sum), T5a and T5c, carry the factor
  ``(1 - exp(-rate*z))^(K-Ks)`` of the unselected ranks, which is smooth
  but not a polynomial.  They start three nodes above the exact count for
  the polynomial part and double the nodes until the n- and 2n-node
  values, summed over segments, agree to ``_EPSABS`` or ``_EPSREL``; a rule
  that reaches ``_MAX_NODES`` per segment warns with ``IntegrationWarning``.

Adaptive quadrature over scalar closures cost far more here, and on the
exact polynomials it kept subdividing after the step sums' roundoff.

Binomial coefficients are assembled exactly (they are integers well inside
double precision for the supported ``K``) and the alternating pieces are
accumulated by compensated summation, smallest first; the headline sums
still cancel heavily near support edges, which is why evaluators expose
``eval_with_scale`` returning the magnitude scale the roundoff should be
measured against.  ``K`` is capped at 30: beyond that the binomial terms
overwhelm double precision regardless of summation order.

Naming: "one vs rest" is the pair (rank-m variable, sum of the other
selected ones); "headsum vs tailsum" is (sum of the m largest, sum of the
remaining selected ones); "best Ks" means only ranks 1..Ks of K enter the
sums.  With ``Ks < K`` the unselected ranks contribute a CDF power through
the rank-Ks variable, which therefore stays a separate coordinate of the
fine densities until integrated out.
"""

import functools
import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from ordstat import _backend
from ordstat.errors import DomainError

__all__ = [
    "pdf_sum_all",
    "jpdf_one_vs_rest_allK",
    "jpdf_headsum_vs_tailsum_allK",
    "pdf_gsc_sum",
    "jpdf_one_vs_rest_bestKs",
    "jpdf_headsum_vs_tailsum_bestKs",
    "K_CAP",
]

K_CAP = 30

_EPSABS = 1e-9
_EPSREL = 1e-8
_SMOOTH_EXTRA = 3  # nodes beyond the exact count, for the smooth factor
_MAX_NODES = 128   # per knot segment, for integrals that are not exact


def _check_k(K, Ks=None, min_k=2):
    if not min_k <= K <= K_CAP:
        raise DomainError(f"K must lie in [{min_k}, {K_CAP}] (binomial "
                          "magnitudes exceed double precision beyond that)")
    if Ks is not None and not 1 <= Ks <= K:
        raise DomainError("need 1 <= Ks <= K")


def _check_scale(gamma_bar):
    g = float(gamma_bar)
    if not g > 0.0 or not math.isfinite(g):
        raise DomainError("gamma_bar must be positive and finite")
    return g


def _pref(*, num, den, rate, rate_pow):
    """Exact combinatorial ratio times a rate power, as a float."""
    frac = Fraction(math.factorial(num[0]), 1)
    for n in num[1:]:
        frac *= math.factorial(n)
    for d in den:
        frac /= math.factorial(d)
    return float(frac) * rate ** rate_pow


@functools.lru_cache(maxsize=None)
def _legendre(n):
    # Shared by every caller, so read-only.
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_knots(f, lo, hi, knots=(), *, deg, exact=True):
    """Integral of ``f`` over ``[lo, hi]``, Gauss-Legendre on each knot segment.

    ``f`` maps an array of nodes to an array of values; it is called once
    per rule, on the nodes of all segments together.  Between knots the
    integrand is a polynomial of degree ``deg`` (``exact``), or such a
    polynomial times a smooth factor.  The ``deg // 2 + 1``-node rule
    integrates the polynomial exactly, so an exact integral takes that rule
    alone.  Otherwise the rule starts ``_SMOOTH_EXTRA`` nodes higher and the
    node count doubles until the n- and 2n-node sums, added over segments,
    agree to ``_EPSABS``/``_EPSREL``; the 2n-node value is returned, with an
    ``IntegrationWarning`` if that takes ``_MAX_NODES`` per segment or more.
    """
    if not hi > lo:
        return 0.0
    edges = np.array([lo, *sorted({float(p) for p in knots if lo < p < hi}),
                      hi])
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])

    def rule(n):
        x, w = _legendre(n)
        return f((mid + half[:, None] * x).ravel()).reshape(-1, n) @ w * half

    n = deg // 2 + 1 + (0 if exact else _SMOOTH_EXTRA)
    est = rule(n)
    if exact:
        return float(est.sum())
    while True:
        n *= 2
        prev, est = est, rule(n)
        total = float(est.sum())
        err = float(np.abs(est - prev).sum())
        if err <= max(_EPSABS, _EPSREL * abs(total)):
            return total
        if n >= _MAX_NODES:
            warnings.warn(
                f"{n}-node Gauss-Legendre rule on [{lo:g}, {hi:g}] did not "
                f"converge: n/2n difference {err:.3g}",
                integrate.IntegrationWarning, stacklevel=2)
            return total


def _pointwise(f):
    """Node-array adapter for a scalar integrand, such as an inner integral."""
    return lambda zs: np.array([f(z) for z in zs.tolist()])


class _Density:
    """Vector-argument adapters shared by the density classes.

    Scalar-argument ``__call__``/``support`` do the real work; ``evaluate``
    and ``in_support`` accept one coordinate vector of length ``dim``.
    """

    path = "exact"

    def evaluate(self, z):
        return self(*z)

    def in_support(self, z):
        return self.support(*z)

    @property
    def meta(self):
        return {"K": self.K, "Ks": getattr(self, "Ks", self.K),
                "m": getattr(self, "m", None),
                "grouping": self.grouping, "path": self.path}


class _StepSum:
    """``sum_j coeff_j (u - thr_j)^power U(u - thr_j)`` with fixed coefficients.

    Thresholds vary per call (they depend on the evaluation point); the
    coefficient sort order is fixed once, ascending in magnitude.
    """

    def __init__(self, coeffs, power):
        c = np.asarray(coeffs, dtype=float)
        self._order = np.argsort(np.abs(c), kind="stable")
        self._coeff = np.ascontiguousarray(c[self._order])
        self._power = np.full(c.size, float(power))
        self._decay = np.zeros(c.size)

    def value(self, u, thresholds):
        thr = np.ascontiguousarray(np.asarray(thresholds, dtype=float)[self._order])
        return _backend.poly_exp_eval(self._coeff, thr, self._power, self._decay,
                                      float(u))

    def values(self, u, thresholds):
        """``value`` at many nodes: thresholds ``(N, T)`` or ``(T,)``.

        ``u`` is one value or one per node.
        """
        thr = np.asarray(thresholds, dtype=float)[..., self._order]
        return _backend.poly_exp_eval(self._coeff, thr, self._power,
                                      self._decay, np.asarray(u, dtype=float))

    def value_with_scale(self, u, thresholds):
        thr = np.ascontiguousarray(np.asarray(thresholds, dtype=float)[self._order])
        return _backend.poly_exp_eval_scale(self._coeff, thr, self._power,
                                            self._decay, float(u))


def _alt_binom(n):
    return [(-1) ** j * math.comb(n, j) for j in range(n + 1)]


class ErlangSum(_Density):
    """Density of the sum of all K variables (Erlang of order K)."""

    dim = 1
    grouping = "sum of all K"

    def __init__(self, K, gamma_bar):
        _check_k(K, min_k=1)
        self.K = K
        self.gamma_bar = _check_scale(gamma_bar)
        self.rate = 1.0 / self.gamma_bar
        self._norm = self.rate ** K / math.factorial(K - 1)

    def support(self, x):
        return x >= 0

    def __call__(self, x):
        if x < 0:
            return 0.0
        return self._norm * x ** (self.K - 1) * math.exp(-self.rate * x)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        return float(special.gammainc(self.K, self.rate * x))


def pdf_sum_all(K, gamma_bar):
    """Density object for the total sum of all ``K`` variables."""
    return ErlangSum(K, gamma_bar)


class OneVsRestAllK(_Density):
    """Joint density of (rank-m variable, sum of the other K-1)."""

    dim = 2
    grouping = "rank-m variable vs sum of the rest, all K"

    def __init__(self, K, m, gamma_bar):
        _check_k(K)
        if not 1 <= m <= K:
            raise DomainError("need 1 <= m <= K")
        self.K, self.m = K, m
        self.gamma_bar = _check_scale(gamma_bar)
        self.rate = a = 1.0 / self.gamma_bar
        self._steps = _StepSum(_alt_binom(K - m), K - 2)
        self._slopes = np.arange(K - m + 1, dtype=float) + (m - 1)
        self._pref = _pref(num=(K,), den=(K - m, m - 1, K - 2), rate=a, rate_pow=K)

    def support(self, z1, z2):
        if z1 < 0 or z2 < 0:
            return False
        if self.m == 1:
            return z2 <= (self.K - 1) * z1
        return z2 >= (self.m - 1) * z1

    def __call__(self, z1, z2):
        if not self.support(z1, z2):
            return 0.0
        s = self._steps.value(z2, self._slopes * z1)
        return self._pref * math.exp(-self.rate * (z1 + z2)) * s

    def eval_with_scale(self, z1, z2):
        """(density, cancellation scale); roundoff lives at scale * eps."""
        if not self.support(z1, z2):
            return 0.0, 0.0
        s, mag = self._steps.value_with_scale(z2, self._slopes * z1)
        damp = self._pref * math.exp(-self.rate * (z1 + z2))
        return damp * s, damp * mag


def jpdf_one_vs_rest_allK(K, m, gamma_bar):
    """Joint density object for (rank-m variable, sum of the rest), all K."""
    return OneVsRestAllK(K, m, gamma_bar)


class HeadTailAllK(_Density):
    """Joint density of (sum of m largest, sum of K-m smallest)."""

    dim = 2
    grouping = "head sum vs tail sum, all K"

    def __init__(self, K, m, gamma_bar):
        _check_k(K)
        if not 1 <= m <= K - 1:
            raise DomainError("need 1 <= m <= K-1 (both sums nonempty)")
        self.K, self.m = K, m
        self.gamma_bar = _check_scale(gamma_bar)
        self.rate = a = 1.0 / self.gamma_bar
        if m == 1:
            # The head is the single largest variable; the pair coincides
            # with the one-vs-rest joint at rank 1.
            self._delegate = OneVsRestAllK(K, 1, gamma_bar)
        else:
            self._delegate = None
            self._steps = _StepSum(_alt_binom(K - m), K - m - 1)
            self._slopes = np.arange(K - m + 1, dtype=float)
            self._pref = _pref(num=(K,), den=(K - m, m - 1, m - 2, K - m - 1),
                               rate=a, rate_pow=K)

    def support(self, z1, z2):
        return z1 >= 0 and z2 >= 0 and (self.K - self.m) * z1 >= self.m * z2

    def __call__(self, z1, z2):
        if self._delegate is not None:
            return self._delegate(z1, z2)
        if not self.support(z1, z2):
            return 0.0
        m, K = self.m, self.K
        glo = z2 / (K - m)
        ghi = z1 / m
        if not ghi > glo:
            return 0.0

        def integrand(g):
            head = (z1 - m * g) ** (m - 2)
            return head * self._steps.values(z2, np.multiply.outer(g, self._slopes))

        knots = [z2 / j for j in range(1, K - m + 1)]
        val = _gauss_knots(integrand, glo, ghi, knots, deg=K - 3)
        return self._pref * math.exp(-self.rate * (z1 + z2)) * val


def jpdf_headsum_vs_tailsum_allK(K, m, gamma_bar):
    """Joint density object for (head sum, tail sum) over all K."""
    return HeadTailAllK(K, m, gamma_bar)


class GscSum(_Density):
    """Density of the sum of the Ks largest of K variables."""

    dim = 1
    grouping = "sum of the Ks largest"

    def __init__(self, K, Ks, gamma_bar):
        _check_k(K, Ks, min_k=1)
        self.K, self.Ks = K, Ks
        self.gamma_bar = _check_scale(gamma_bar)
        self.rate = a = 1.0 / self.gamma_bar
        if Ks >= 2:
            self._pref = _pref(num=(K,), den=(K - Ks, Ks - 1, Ks - 2),
                               rate=a, rate_pow=Ks)

    def support(self, x):
        return x >= 0

    def __call__(self, x):
        if x < 0:
            return 0.0
        a, K, Ks = self.rate, self.K, self.Ks
        if Ks == 1:
            return K * a * math.exp(-a * x) * (-math.expm1(-a * x)) ** (K - 1)

        def integrand(z):
            return (-np.expm1(-a * z)) ** (K - Ks) * (x - Ks * z) ** (Ks - 2)

        val = _gauss_knots(integrand, 0.0, x / Ks, deg=Ks - 2, exact=False)
        return self._pref * math.exp(-a * x) * val


def pdf_gsc_sum(K, Ks, gamma_bar):
    """Density object for the sum of the ``Ks`` largest of ``K``."""
    return GscSum(K, Ks, gamma_bar)


# -- fine joint densities of the best-Ks decompositions --


class _FineBase(_Density):
    @property
    def grouping(self):
        return " / ".join(self.coords)

    def __init__(self, K, Ks, gamma_bar):
        _check_k(K, Ks)
        self.K, self.Ks = K, Ks
        self.gamma_bar = _check_scale(gamma_bar)
        self.rate = 1.0 / self.gamma_bar

    def _cdf_pow(self, z4):
        # Unselected ranks all lie below the rank-Ks variable.
        return (-math.expm1(-self.rate * z4)) ** (self.K - self.Ks)

    def _cdf_pows(self, z4):
        return (-np.expm1(-self.rate * z4)) ** (self.K - self.Ks)


class FineOneMidLast(_FineBase):
    """Joint of (rank-1 variable, sum of ranks 2..Ks-1, rank-Ks variable)."""

    dim = 3
    coords = ("gamma_1", "mid_sum", "gamma_Ks")

    def __init__(self, K, Ks, gamma_bar):
        if Ks < 3:
            raise DomainError("need Ks >= 3 for a nonempty middle group")
        super().__init__(K, Ks, gamma_bar)
        a = self.rate
        self._steps = _StepSum(_alt_binom(Ks - 2), Ks - 3)
        self._c4 = np.arange(Ks - 2, -1.0, -1.0)   # coefficient of z4: Ks-2-j
        self._c1 = np.arange(0.0, Ks - 1.0)        # coefficient of z1: j
        self._pref = _pref(num=(K,), den=(K - Ks, Ks - 2, Ks - 3),
                           rate=a, rate_pow=Ks)

    def support(self, z1, z3, z4):
        return (0 <= z4 <= z1
                and (self.Ks - 2) * z4 <= z3 <= (self.Ks - 2) * z1)

    def __call__(self, z1, z3, z4):
        if z1 < 0 or z3 < 0 or z4 < 0 or z4 > z1:
            return 0.0
        s = self._steps.value(z3, self._c4 * z4 + self._c1 * z1)
        return (self._pref * self._cdf_pow(z4)
                * math.exp(-self.rate * (z1 + z3 + z4)) * s)

    def values(self, z1, z3, z4):
        """``__call__`` over coordinate arrays (or scalars) that broadcast."""
        ok = (z1 >= 0) & (z3 >= 0) & (z4 >= 0) & (z4 <= z1)
        s = self._steps.values(z3, np.multiply.outer(z4, self._c4)
                               + np.multiply.outer(z1, self._c1))
        out = (self._pref * self._cdf_pows(z4)
               * np.exp(-self.rate * (z1 + z3 + z4)) * s)
        return np.where(ok, out, 0.0)


class FineHeadMidLast(_FineBase):
    """Joint of (sum of ranks 1..m-1, rank-m, sum of ranks m+1..Ks-1, rank-Ks)."""

    dim = 4
    coords = ("head_sum", "gamma_m", "mid_sum", "gamma_Ks")

    def __init__(self, K, Ks, m, gamma_bar):
        if not 2 <= m <= Ks - 2:
            raise DomainError("need 2 <= m <= Ks-2 for all four groups nonempty")
        super().__init__(K, Ks, gamma_bar)
        self.m = m
        a = self.rate
        n_mid = Ks - m - 1
        self._steps = _StepSum(_alt_binom(n_mid), n_mid - 1)
        self._c4 = np.arange(n_mid, -1.0, -1.0)   # coefficient of z4
        self._c2 = np.arange(0.0, n_mid + 1.0)    # coefficient of z2
        self._pref = _pref(num=(K,),
                           den=(K - Ks, m - 1, Ks - m - 1, m - 2, Ks - m - 2),
                           rate=a, rate_pow=Ks)

    def support(self, z1, z2, z3, z4):
        return (0 <= z4 <= z2
                and z1 >= (self.m - 1) * z2
                and (self.Ks - self.m - 1) * z4 <= z3 <= (self.Ks - self.m - 1) * z2)

    def __call__(self, z1, z2, z3, z4):
        if z1 < 0 or z2 < 0 or z3 < 0 or z4 < 0 or z4 > z2:
            return 0.0
        head = z1 - (self.m - 1) * z2
        if head < 0:
            return 0.0
        s = self._steps.value(z3, self._c4 * z4 + self._c2 * z2)
        return (self._pref * self._cdf_pow(z4) * head ** (self.m - 2)
                * math.exp(-self.rate * (z1 + z2 + z3 + z4)) * s)

    def values(self, z1, z2, z3, z4):
        """``__call__`` over coordinate arrays (or scalars) that broadcast."""
        head = z1 - (self.m - 1) * z2
        ok = ((z1 >= 0) & (z2 >= 0) & (z3 >= 0) & (z4 >= 0) & (z4 <= z2)
              & (head >= 0))
        s = self._steps.values(z3, np.multiply.outer(z4, self._c4)
                               + np.multiply.outer(z2, self._c2))
        out = (self._pref * self._cdf_pows(z4) * head ** (self.m - 2)
               * np.exp(-self.rate * (z1 + z2 + z3 + z4)) * s)
        return np.where(ok, out, 0.0)


class FineHeadNextLast(_FineBase):
    """Joint of (sum of ranks 1..Ks-2, rank-(Ks-1) variable, rank-Ks variable)."""

    dim = 3
    coords = ("head_sum", "gamma_m", "gamma_Ks")

    def __init__(self, K, Ks, gamma_bar):
        if Ks < 3:
            raise DomainError("need Ks >= 3 for a nonempty head group")
        super().__init__(K, Ks, gamma_bar)
        self._pref = _pref(num=(K,), den=(K - Ks, Ks - 2, Ks - 3),
                           rate=self.rate, rate_pow=Ks)

    def support(self, z1, z2, z4):
        return 0 <= z4 <= z2 and z1 >= (self.Ks - 2) * z2

    def __call__(self, z1, z2, z4):
        if z1 < 0 or z2 < 0 or z4 < 0 or z4 > z2:
            return 0.0
        head = z1 - (self.Ks - 2) * z2
        if head < 0:
            return 0.0
        return (self._pref * self._cdf_pow(z4) * head ** (self.Ks - 3)
                * math.exp(-self.rate * (z1 + z2 + z4)))

    def values(self, z1, z2, z4):
        """``__call__`` over coordinate arrays (or scalars) that broadcast."""
        head = z1 - (self.Ks - 2) * z2
        ok = (z1 >= 0) & (z2 >= 0) & (z4 >= 0) & (z4 <= z2) & (head >= 0)
        out = (self._pref * self._cdf_pows(z4) * head ** (self.Ks - 3)
               * np.exp(-self.rate * (z1 + z2 + z4)))
        return np.where(ok, out, 0.0)


class FineLastHead(_FineBase):
    """Joint of (rank-Ks variable, sum of ranks 1..Ks-1)."""

    dim = 2
    coords = ("gamma_Ks", "head_sum")

    def __init__(self, K, Ks, gamma_bar):
        if Ks < 2:
            raise DomainError("need Ks >= 2 for a nonempty head group")
        super().__init__(K, Ks, gamma_bar)
        self._pref = _pref(num=(K,), den=(K - Ks, Ks - 1, Ks - 2),
                           rate=self.rate, rate_pow=Ks)

    def support(self, v, w):
        return v >= 0 and w >= (self.Ks - 1) * v

    def __call__(self, v, w):
        if v < 0 or w < (self.Ks - 1) * v:
            return 0.0
        return (self._pref * self._cdf_pow(v)
                * (w - (self.Ks - 1) * v) ** (self.Ks - 2)
                * math.exp(-self.rate * (v + w)))


class BestKsOneVsRest(_Density):
    """Joint of (rank-m variable, sum of the other selected ranks), Ks of K.

    The pair is recovered from a finer decomposition whose shape depends on
    where rank m sits; ``case`` records which one applies:

    * ``"d"``: m == Ks, closed form, no integration.
    * ``"a"``: m == 1 (needs Ks >= 3), one remaining integral.
    * ``"c"``: m == Ks-1 (needs Ks >= 3), one remaining integral.
    * ``"b"``: 2 <= m <= Ks-2, two nested integrals.

    With Ks == 2 and m == 1 the pair is (rank-1, rank-2), which is the
    case-"d" pair with its arguments swapped; that reroute is handled here.
    """

    dim = 2
    grouping = "rank-m variable vs sum of the rest, best Ks"

    def __init__(self, K, Ks, m, gamma_bar):
        _check_k(K, Ks)
        if Ks < 2:
            raise DomainError("need Ks >= 2 (the rest-sum must be nonempty); "
                              "for Ks == 1 use pdf_gsc_sum")
        if not 1 <= m <= Ks:
            raise DomainError("need 1 <= m <= Ks")
        self.K, self.Ks, self.m = K, Ks, m
        self.gamma_bar = _check_scale(gamma_bar)
        self.rate = 1.0 / self.gamma_bar
        self._swap = False
        if m == Ks:
            self.case = "d"
            self.fine = FineLastHead(K, Ks, gamma_bar)
        elif m == 1 and Ks == 2:
            self.case = "d"
            self._swap = True
            self.fine = FineLastHead(K, Ks, gamma_bar)
        elif m == 1:
            self.case = "a"
            self.fine = FineOneMidLast(K, Ks, gamma_bar)
        elif m == Ks - 1:
            self.case = "c"
            self.fine = FineHeadNextLast(K, Ks, gamma_bar)
        else:
            self.case = "b"
            self.fine = FineHeadMidLast(K, Ks, m, gamma_bar)

    def support(self, x, y):
        if x < 0 or y < 0:
            return False
        Ks, m = self.Ks, self.m
        if self.case == "d":
            return x >= y if self._swap else y >= (Ks - 1) * x
        if self.case == "a":
            return y <= (Ks - 1) * x
        if self.case == "c":
            return y >= (Ks - 2) * x
        return y >= (m - 1) * x

    def __call__(self, x, y):
        return self.reduce_to_2d(x, y)

    def reduce_to_2d(self, x, y, order=0):
        """Density of (rank-m value x, rest-sum value y).

        ``order`` picks the variable eliminated first where two reduction
        orders exist (1 or 2); 0 means the default.  The orders agree up to
        quadrature error and exist to check each other.
        """
        if not self.support(x, y):
            return 0.0
        if self.case == "d":
            return self.fine(y, x) if self._swap else self.fine(x, y)
        if self.case == "a":
            return self._eval_a(x, y, order)
        if self.case == "c":
            return self._eval_c(x, y, order)
        return self._eval_b(x, y, order)

    def _eval_a(self, x, y, order):
        Ks, fine = self.Ks, self.fine
        if order in (0, 1):
            lo = max(0.0, y - (Ks - 2) * x)
            hi = y / (Ks - 1)
            knots = [(y - j * x) / (Ks - 1 - j) for j in range(1, Ks - 1)]
            knots.append(x)
            return _gauss_knots(lambda z4: fine.values(x, y - z4, z4), lo, hi,
                                knots, deg=Ks - 3, exact=False)
        lo = max((Ks - 2) * y / (Ks - 1), y - x)
        hi = min((Ks - 2) * x, y)
        knots = [((Ks - 2 - j) * y + j * x) / (Ks - 1 - j) for j in range(1, Ks - 1)]
        knots.append(y - x)
        return _gauss_knots(lambda z3: fine.values(x, z3, y - z3), lo, hi,
                            knots, deg=Ks - 3, exact=False)

    def _eval_c(self, x, y, order):
        Ks, fine = self.Ks, self.fine
        if order in (0, 1):
            hi = min(x, y - (Ks - 2) * x)
            return _gauss_knots(lambda z4: fine.values(y - z4, x, z4), 0.0, hi,
                                deg=Ks - 3, exact=False)
        lo = max((Ks - 2) * x, y - x)
        return _gauss_knots(lambda z1: fine.values(z1, x, y - z1), lo, y,
                            deg=Ks - 3, exact=False)

    def _eval_b(self, x, y, order):
        Ks, m, fine = self.Ks, self.m, self.fine
        nm = Ks - m  # selected ranks below m, inclusive of rank Ks
        hi4 = min(x, (y - (m - 1) * x) / nm)
        outer_knots = [(y - (m + j - 1) * x) / (nm - j) for j in range(1, nm)]
        outer_knots.append(y - (Ks - 2) * x)
        if order in (0, 1):
            def inner(z4):
                # Below y - z4 - (nm-1)*x the mid-sum exceeds its support
                # and the step sum is cancellation noise around zero; stop
                # the integral at the true edge.
                lo1 = max((m - 1) * x, y - z4 - (nm - 1) * x)
                hi1 = y - nm * z4
                knots = [y - (nm - j) * z4 - j * x for j in range(1, nm)]
                return _gauss_knots(lambda z1: fine.values(z1, x, y - z1 - z4, z4),
                                    lo1, hi1, knots, deg=Ks - 4)
        else:
            def inner(z4):
                lo3 = (nm - 1) * z4
                hi3 = min((nm - 1) * x, y - z4 - (m - 1) * x)
                knots = [(nm - 1 - j) * z4 + j * x for j in range(1, nm)]
                return _gauss_knots(lambda z3: fine.values(y - z3 - z4, x, z3, z4),
                                    lo3, hi3, knots, deg=Ks - 4)
        return _gauss_knots(_pointwise(inner), 0.0, hi4, outer_knots,
                            deg=Ks - 3, exact=False)


def jpdf_one_vs_rest_bestKs(K, Ks, m, gamma_bar):
    """Joint density object for (rank-m variable, rest of the best Ks)."""
    return BestKsOneVsRest(K, Ks, m, gamma_bar)


class BestKsHeadTail(_Density):
    """Joint of (sum of ranks 1..m, sum of ranks m+1..Ks), Ks of K."""

    dim = 2
    grouping = "head sum vs tail sum, best Ks"

    def __init__(self, K, Ks, m, gamma_bar):
        _check_k(K, Ks)
        if not 1 <= m <= Ks - 1:
            raise DomainError("need 1 <= m <= Ks-1 (both sums nonempty)")
        self.K, self.Ks, self.m = K, Ks, m
        self.gamma_bar = _check_scale(gamma_bar)
        self.rate = 1.0 / self.gamma_bar
        self._one = None
        self._last = None
        if m == 1:
            # Head is the single largest variable.
            self._one = BestKsOneVsRest(K, Ks, 1, gamma_bar)
            self.fine = self._one.fine
        elif m == Ks - 1:
            # Tail is the single rank-Ks variable.
            self._last = FineLastHead(K, Ks, gamma_bar)
            self.fine = self._last
        else:
            self.fine = FineHeadMidLast(K, Ks, m, gamma_bar)

    def support(self, x, y):
        return (x >= 0 and y >= 0
                and (self.Ks - self.m) * x >= self.m * y)

    def __call__(self, x, y):
        if not self.support(x, y):
            return 0.0
        if self._one is not None:
            return self._one.reduce_to_2d(x, y)
        if self._last is not None:
            return self._last(y, x)
        Ks, m, fine = self.Ks, self.m, self.fine
        nt = Ks - m  # tail size
        lo4 = max(0.0, y - (nt - 1) * x / m)
        hi4 = y / nt
        hi2 = x / m
        outer_knots = [(y - j * x / m) / (nt - j) for j in range(1, nt)]

        def inner(z4):
            # Below (y - z4) / (nt - 1) the mid-sum exceeds its support and
            # the step sum is cancellation noise around zero.
            lo2 = (y - z4) / (nt - 1)
            knots = [(y - (nt - j) * z4) / j for j in range(1, nt)]
            return _gauss_knots(lambda z2: fine.values(x - z2, z2, y - z4, z4),
                                lo2, hi2, knots, deg=Ks - 4)

        return _gauss_knots(_pointwise(inner), lo4, hi4, outer_knots,
                            deg=Ks - 3, exact=False)


def jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, gamma_bar):
    """Joint density object for (head sum, tail sum) over the best Ks."""
    return BestKsHeadTail(K, Ks, m, gamma_bar)
