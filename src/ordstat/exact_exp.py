"""Closed-form densities for sums of ordered i.i.d. exponential variables.

Rank the variables decreasingly (rank 1 largest).  For an exponential
source every transform-domain object downstream of the kernel powers is a
finite sum of shifted poles, so each density here is a sum of
``(u - threshold)^power`` pieces times a common ``exp(-rate * total)``
factor.  T1, T2 and case d of T5 are such sums outright.  T3, T4, the
other cases of T5 and T6 integrate a fine joint density of the same form
(the ``Fine*`` classes) with the shared reductions of ``reductions``, which
the generic path runs on its own fine densities.

The fine densities are piecewise polynomial along every reduction line
that holds the rank-Ks value fixed: the exponential factor is constant
there, and what is left is a step sum times a power of a head sum.  So the
inner integrals of T3, T5b and T6 take exact-degree Gauss-Legendre rules,
and only the integrals over the rank-Ks value, which carry the factor
``(1 - exp(-rate*z))^(K-Ks)`` of the unselected ranks, compare n and 2n
nodes.

Each density has one evaluation form: ``values``, over coordinate arrays
that broadcast; ``__call__``, defined once on ``_Density``, goes through
it and gives a float at one point.  The fine densities and T1, T2 and T5d
are one formula; the reduced T3, T4, T5 and T6 densities integrate the
points inside their support as the rows of one ``reductions`` rule.  At
one point T2 sums its step sum in ``_backend``'s scalar loop, so that its
outputs keep libm's ``pow`` rounding.

Binomial coefficients are assembled exactly (they are integers well inside
double precision for the supported ``K``) and the alternating pieces are
accumulated by compensated summation, smallest first; the headline sums
still cancel heavily near support edges.  Every step-sum threshold is
linear in the coordinates of the point: ``_StepSum`` keeps the slopes in
summation order and builds the thresholds term-major, one array per term
over the nodes, which is the layout in which ``_backend`` raises only the
terms that are live at a node.  ``OneVsRestAllK.values`` can
also return the magnitude scale the roundoff should be measured against.
``K`` is capped at 30: beyond that the binomial terms overwhelm double
precision regardless of summation order.

Naming: "one vs rest" is the pair (rank-m variable, sum of the other
selected ones); "headsum vs tailsum" is (sum of the m largest, sum of the
remaining selected ones); "best Ks" means only ranks 1..Ks of K enter the
sums.  With ``Ks < K`` the unselected ranks contribute a CDF power through
the rank-Ks variable, which therefore stays a separate coordinate of the
fine densities until integrated out.
"""

import math
from fractions import Fraction

import numpy as np

from ordstat import _backend, _scipy, reductions
from ordstat.errors import DomainError
from ordstat.partition import t5_case
# The path's relative accuracy target, which the benchmark's oracle reads.
from ordstat.reductions import _EPSREL  # noqa: F401

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

# No quadrature runs here; ``integrate`` (scipy.integrate, loaded at first
# access) is a module attribute for perfbench's tracer to replace.
__getattr__ = _scipy.lazy_integrate(__name__)


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


class _Density:
    """Shared call forms of the density classes.

    Every class has ``values``, which evaluates coordinate arrays (or
    scalars) that broadcast and keeps their shape.  ``__call__`` takes the
    same arguments and returns a float at a single point, else the array;
    so one call evaluates a whole grid.  ``evaluate`` accepts one
    coordinate vector of length ``dim``.

    The theorem densities (T1-T6) give nan at a point with a nan
    coordinate and 0 at one with an infinite coordinate (and none that is
    nan), without running a rule: ``reductions._points`` sorts the points,
    on this path and the generic one.
    """

    path = "exact"

    def __call__(self, *z):
        v = self.values(*z)
        return v.item() if np.ndim(v) == 0 else v

    def evaluate(self, z):
        return self(*z)

    @property
    def meta(self):
        return {"K": self.K, "Ks": getattr(self, "Ks", self.K),
                "m": getattr(self, "m", None),
                "grouping": self.grouping, "path": self.path}


class _StepSum:
    """``sum_j coeff_j (u - thr_j)^power U(u - thr_j)`` with fixed coefficients.

    Each threshold is linear in the coordinates of the evaluation point,
    ``thr_j = sum_i slopes_i[j] * coords_i``.  The coefficients and the
    slopes are sorted once, ascending in |coeff|, which is the order that
    ``_backend`` sums the terms in.
    """

    def __init__(self, coeffs, power, *slopes):
        c = np.asarray(coeffs, dtype=float)
        order = np.argsort(np.abs(c), kind="stable")
        self._coeff = np.ascontiguousarray(c[order])
        self._power = np.full(c.size, float(power))
        self._slopes = [np.asarray(s, dtype=float)[order] for s in slopes]

    def values(self, u, *coords, scale=False):
        """The sum at ``u``, with one coordinate per slope vector; ``u`` and
        the coordinates are arrays (or scalars) that broadcast.

        The thresholds are term-major, ``(T, *nodes)``.  A single point
        (all scalars) takes ``_backend``'s scalar loop.  With ``scale`` the
        sum of |term| comes second, from the node form.
        """
        nd = max(map(np.ndim, (u, *coords)))
        col = (-1,) + (1,) * nd
        thr = None
        for s, c in zip(self._slopes, coords, strict=True):
            t = s.reshape(col) * c
            thr = t if thr is None else thr + t
        u = np.asarray(u, dtype=float) if nd else float(u)
        if scale:
            return _backend.poly_exp_eval_scale(self._coeff, thr,
                                                self._power, u)
        return _backend.poly_exp_eval(self._coeff, thr, self._power, u)


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

    def values(self, x):
        """Density over an array (or scalar) of x."""
        return reductions._closed_form(
            self.support,
            lambda x: self._norm * x ** (self.K - 1) * np.exp(-self.rate * x),
            x)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        return _erlang_cdf(self.K, self.rate * x)


def _erlang_cdf(K, y):
    """CDF of the unit-rate Erlang of order K at y > 0, from positive terms.

    Below the mean K it is the Poisson upper tail e^-y sum_{j>=K} y^j/j!,
    whose terms fall from the first on; from the mean on it is
    1 - e^-y sum_{j<K} y^j/j!, where that sum is at most about 1/2.  The
    terms come by the recurrence t_j = t_{j-1} y/j, two roundings each.
    """
    term = math.exp(-y)
    if y < K:
        for j in range(1, K + 1):
            term *= y / j
        tail, j = 0.0, K
        while term > tail * 2.0 ** -60:
            tail += term
            j += 1
            term *= y / j
        return tail
    if term == 0.0:
        return 1.0      # y > 745, where the head is below 1e-270 for K <= 30
    head = term
    for j in range(1, K):
        term *= y / j
        head += term
    return 1.0 - head


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
        self._steps = _StepSum(_alt_binom(K - m), K - 2,
                               np.arange(K - m + 1, dtype=float) + (m - 1))
        self._pref = _pref(num=(K,), den=(K - m, m - 1, K - 2), rate=a, rate_pow=K)

    def support(self, z1, z2):
        """Also over arrays that broadcast."""
        if self.m == 1:
            edge = z2 <= (self.K - 1) * z1
        else:
            edge = z2 >= (self.m - 1) * z1
        return (z1 >= 0) & (z2 >= 0) & edge

    def values(self, z1, z2, scale=False):
        """Density over coordinate arrays (or scalars) that broadcast.

        A single point sums its step sum in ``_backend``'s scalar loop.
        With ``scale`` the cancellation scale comes second (node form):
        the roundoff of the density lives at scale * eps.  At a single
        point outside the support both are the density there, 0 or nan.
        """
        def formula(z1, z2):
            s = self._steps.values(z2, z1, scale=scale)
            damp = self._pref * np.exp(-self.rate * (z1 + z2))
            return (damp * s[0], damp * s[1]) if scale else damp * s

        v = reductions._closed_form(self.support, formula, z1, z2)
        return (v, v) if scale and not np.ndim(v) else v


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
        self.rate = 1.0 / self.gamma_bar
        if m == 1:
            # The head is the single largest variable; the pair coincides
            # with the one-vs-rest joint at rank 1.
            self._delegate = OneVsRestAllK(K, 1, gamma_bar)
        else:
            self._delegate = None
            self.fine = FineHeadRankTail(K, m, gamma_bar)

    def support(self, z1, z2):
        return reductions.t3_support(self.K, self.m, z1, z2)

    def values(self, z1, z2):
        """Density over coordinate arrays (or scalars) that broadcast; the
        points are the rows of one ``reductions.t3`` rule."""
        if self._delegate is not None:
            return self._delegate.values(z1, z2)
        return reductions.t3(self.fine, self.K, self.m, z1, z2)


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
        self.rate = 1.0 / self.gamma_bar
        if Ks >= 2:
            self.fine = FineLastHead(K, Ks, gamma_bar)

    def support(self, x):
        return x >= 0

    def values(self, x):
        """Density over an array (or scalar) of x; an array takes one
        ``reductions.t4`` rule with a row per value."""
        a, K = self.rate, self.K
        if self.Ks == 1:
            return reductions._closed_form(
                self.support,
                lambda x: K * a * np.exp(-a * x) * (-np.expm1(-a * x)) ** (K - 1),
                x)
        return reductions.t4(self.fine, self.Ks, x)


def pdf_gsc_sum(K, Ks, gamma_bar):
    """Density object for the sum of the ``Ks`` largest of ``K``."""
    return GscSum(K, Ks, gamma_bar)


# -- fine joint densities, reduced by ``reductions`` --


class _FineBase(_Density):
    # Polynomial between knots wherever the rank-Ks value is held fixed.
    piecewise_polynomial = True

    @property
    def grouping(self):
        return " / ".join(self.coords)

    def __init__(self, K, Ks, gamma_bar):
        _check_k(K, Ks)
        self.K, self.Ks = K, Ks
        self.gamma_bar = _check_scale(gamma_bar)
        self.rate = 1.0 / self.gamma_bar

    def _cdf_pows(self, z4):
        # Unselected ranks all lie below the rank-Ks variable.
        return (-np.expm1(-self.rate * z4)) ** (self.K - self.Ks)


class FineHeadRankTail(_FineBase):
    """Joint of (sum of ranks 1..m, rank-m variable, sum of ranks m+1..K)."""

    dim = 3
    coords = ("head_sum", "gamma_m", "tail_sum")

    def __init__(self, K, m, gamma_bar):
        if not 2 <= m <= K - 1:
            raise DomainError("need 2 <= m <= K-1 for a head above rank m "
                              "and a nonempty tail")
        super().__init__(K, K, gamma_bar)
        self.m = m
        self._steps = _StepSum(_alt_binom(K - m), K - m - 1,
                               np.arange(K - m + 1, dtype=float))
        self._pref = _pref(num=(K,), den=(K - m, m - 1, m - 2, K - m - 1),
                           rate=self.rate, rate_pow=K)

    def support(self, z1, g, z2):
        return 0 <= z2 <= (self.K - self.m) * g and z1 >= self.m * g

    def values(self, z1, g, z2):
        """Density over coordinate arrays (or scalars) that broadcast."""
        m = self.m
        ok = (g >= 0) & (z1 >= m * g) & (z2 >= 0) & (z2 <= (self.K - m) * g)
        s = self._steps.values(z2, g)
        out = (self._pref * np.exp(-self.rate * (z1 + z2))
               * (z1 - m * g) ** (m - 2) * s)
        return np.where(ok, out, 0.0)


class FineOneMidLast(_FineBase):
    """Joint of (rank-1 variable, sum of ranks 2..Ks-1, rank-Ks variable)."""

    dim = 3
    coords = ("gamma_1", "mid_sum", "gamma_Ks")

    def __init__(self, K, Ks, gamma_bar):
        if Ks < 3:
            raise DomainError("need Ks >= 3 for a nonempty middle group")
        super().__init__(K, Ks, gamma_bar)
        a = self.rate
        # Threshold j is (Ks-2-j) z4 + j z1.
        self._steps = _StepSum(_alt_binom(Ks - 2), Ks - 3,
                               np.arange(Ks - 2, -1.0, -1.0),
                               np.arange(0.0, Ks - 1.0))
        self._pref = _pref(num=(K,), den=(K - Ks, Ks - 2, Ks - 3),
                           rate=a, rate_pow=Ks)

    def support(self, z1, z3, z4):
        return (0 <= z4 <= z1
                and (self.Ks - 2) * z4 <= z3 <= (self.Ks - 2) * z1)

    def values(self, z1, z3, z4):
        """Density over coordinate arrays (or scalars) that broadcast."""
        ok = (z1 >= 0) & (z3 >= 0) & (z4 >= 0) & (z4 <= z1)
        s = self._steps.values(z3, z4, z1)
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
        # Threshold j is (n_mid-j) z4 + j z2.
        self._steps = _StepSum(_alt_binom(n_mid), n_mid - 1,
                               np.arange(n_mid, -1.0, -1.0),
                               np.arange(0.0, n_mid + 1.0))
        self._pref = _pref(num=(K,),
                           den=(K - Ks, m - 1, Ks - m - 1, m - 2, Ks - m - 2),
                           rate=a, rate_pow=Ks)

    def support(self, z1, z2, z3, z4):
        return (0 <= z4 <= z2
                and z1 >= (self.m - 1) * z2
                and (self.Ks - self.m - 1) * z4 <= z3 <= (self.Ks - self.m - 1) * z2)

    def values(self, z1, z2, z3, z4):
        """Density over coordinate arrays (or scalars) that broadcast."""
        head = z1 - (self.m - 1) * z2
        ok = ((z1 >= 0) & (z2 >= 0) & (z3 >= 0) & (z4 >= 0) & (z4 <= z2)
              & (head >= 0))
        s = self._steps.values(z3, z4, z2)
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

    def values(self, z1, z2, z4):
        """Density over coordinate arrays (or scalars) that broadcast."""
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

    def values(self, v, w):
        """Density over coordinate arrays (or scalars) that broadcast."""
        head = w - (self.Ks - 1) * v
        out = (self._pref * self._cdf_pows(v) * head ** (self.Ks - 2)
               * np.exp(-self.rate * (v + w)))
        return np.where((v >= 0) & (head >= 0), out, 0.0)


# The fine density of each T5 case, for ``reductions.t5_fine``.
_T5_FINES = {"a": FineOneMidLast, "b": FineHeadMidLast,
             "c": FineHeadNextLast, "d": FineLastHead}


class BestKsOneVsRest(_Density):
    """Joint of (rank-m variable, sum of the other selected ranks), Ks of K.

    The pair is recovered from a finer decomposition whose shape depends on
    where rank m sits; ``case`` (``partition.t5_case``) records which one
    applies, and ``reductions.t5`` lists them.
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
        self.case = t5_case(Ks, m)
        self.fine = reductions.t5_fine(_T5_FINES, K, Ks, m, gamma_bar)

    def support(self, x, y):
        return reductions.t5_support(self.Ks, self.m, x, y)

    def values(self, x, y):
        return self.reduce_to_2d(x, y)

    def reduce_to_2d(self, x, y, order=0):
        """Density of (rank-m value x, rest-sum value y), over coordinate
        arrays (or scalars) that broadcast: the rows of one rule.

        ``order`` picks the variable eliminated first where two reduction
        orders exist (1 or 2); 0 means the default.  The orders agree up to
        quadrature error and exist to check each other.
        """
        return reductions.t5(self.fine, self.Ks, self.m, x, y, order)


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
        self.fine = reductions.t6_fine(_T5_FINES, K, Ks, m, gamma_bar)

    def support(self, x, y):
        return reductions.t6_support(self.Ks, self.m, x, y)

    def values(self, x, y):
        """Density over coordinate arrays (or scalars) that broadcast; the
        points are the rows of one ``reductions.t6`` rule."""
        return reductions.t6(self.fine, self.Ks, self.m, x, y)


def jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, gamma_bar):
    """Joint density object for (head sum, tail sum) over the best Ks."""
    return BestKsHeadTail(K, Ks, m, gamma_bar)
