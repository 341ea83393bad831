"""Closed-form densities for sums of ordered i.i.d. exponential variables.

Rank the variables decreasingly (rank 1 largest).  For an exponential
source every transform-domain object downstream of the kernel powers is a
finite sum of shifted poles, so each density here is a sum of
``(u - threshold)^power`` pieces times a common ``exp(-rate * total)``
factor.  T1, T2, T3 and case d of T5 are such formulas outright.  T4, the
other cases of T5 and T6 integrate a fine joint density of the same form
(the ``Fine*`` classes) over one coordinate, by default the rank-Ks
value, with the shared reductions of ``reductions``, which the generic
path runs on its own fine densities.  Those integrals carry the factor
``(1 - exp(-rate*z))^(K-Ks)`` of the unselected ranks, so they compare
the Gauss and Kronrod sums of a nested pair.

T3 is one formula.  By Renyi (1953) the head sum H (the m largest) and
the tail sum T of N unit exponentials are ``sum_i E_i v_i``, with every
``v_i`` on the line h + t = 1: m of them at (1, 0), and ``(m, j) /
(m + j)`` for j = 1..N-m.  So S = H + T is Erlang(N), independent of the
tail share T/S, whose density is the B-spline of degree N-2 with those
knots (Curry & Schoenberg, 1966).  On cone k, ``k <= m t / h < k + 1``,
the density is ``exp(-(h + t))`` times a homogeneous polynomial of
degree N-2 in ``s = m t - k h`` and ``t' = (k + 1) h - m t``, with
nonnegative weights: ``_backend.head_tail``.  T6 takes it on shifted
coordinates: above the rank-Ks value the best Ks-1 are i.i.d. (the same
memorylessness), so ``FineHeadTailLast`` is T3 of the best Ks-1 above
the rank-Ks value, and T6 is one integral over that value, as T5b is
over ``FineRankRestLast``, T2 of the best Ks-1 above it.

Each density has one evaluation form: ``values``, over coordinate arrays
that broadcast; ``__call__``, defined once on ``_Density``, goes through
it and gives a float at one point.  ``values`` works in units of the mean
``gamma_bar``: it is ``gamma_bar^-dim`` times the unit-mean density
(``_unit``) at ``z / gamma_bar``, so no power of the rate is formed and
every mean that is positive and finite has the range of the unit one.
The fine densities and T1, T2, T3 and T5d are one formula; the reduced
T4, T5 and T6 densities integrate the points inside their support as the
rows of one ``reductions`` rule, on fine densities built at unit mean.

Every step sum here is one binomial step sum with equally spaced
thresholds, ``sum_j (-1)^j C(n, j) (u - (a + j) h)_+^p``: in T2 (and T3
with m = 1, the rank-1 T2 joint), in ``FineRankRestLast`` (T5b) and its
case m = 1, ``FineOneMidLast`` (T5a), and in ``FineHeadMidLast``.  Its
case m = Ks-1, ``FineHeadNextLast`` (T5c), has none: every rank of the
rest is above x.  ``_backend.power_difference`` computes it
from the nonnegative Bernstein coefficients of its polynomial pieces, and
``_backend.head_tail`` the T3 sum from its own nonnegative weights; both
tables are built once per shape in exact integers and evaluated by one
kernel, so that no sum cancels anywhere in the support.  A fine density
whose threshold j is ``(a + j) zr + (n - j) z4`` passes
``u = z - (a + n) z4`` and ``h = zr - z4``; a is 0 but in
``FineRankRestLast``, where it is m-1.  ``K`` is capped at 30
(``K_CAP``), the domain that the tests cover; a larger cap waits for an
arbitrary-precision check of every family beyond it.

Naming: "one vs rest" is the pair (rank-m variable, sum of the other
selected ones); "headsum vs tailsum" is (sum of the m largest, sum of the
remaining selected ones); "best Ks" means only ranks 1..Ks of K enter the
sums.  With ``Ks < K`` the unselected ranks contribute a CDF power through
the rank-Ks variable, which therefore stays a separate coordinate of the
fine densities until integrated out.
"""

import math

import numpy as np

from ordstat import _backend, reductions
from ordstat.errors import DomainError
from ordstat.partition import t5_case
from ordstat.reductions import _pow, _pref
# The path's relative accuracy target, which the benchmark's oracle reads.
from ordstat.rules import _EPSREL  # noqa: F401

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

# Unit coordinates above this are clamped to it (``_Theorem.values``):
# exp(-1000) is 0 in doubles, and at K_CAP the polynomial factors stay
# below 1e130 there.
_FAR = 1e3

# A placeholder: perfbench's tracer swaps a counting proxy into this
# name, and no ordstat code reads it.
integrate = None


def _check_k(K, Ks=None, min_k=2):
    if not min_k <= K <= K_CAP:
        raise DomainError(f"K must lie in [{min_k}, {K_CAP}] (the domain "
                          "that the exact path is tested on)")
    if Ks is not None and not 1 <= Ks <= K:
        raise DomainError("need 1 <= Ks <= K")


def _check_scale(gamma_bar):
    g = float(gamma_bar)
    if not g > 0.0 or not math.isfinite(g):
        raise DomainError("gamma_bar must be positive and finite")
    return g


class _Density:
    """Shared call forms of the density classes.

    Every class has ``values``, which evaluates coordinate arrays (or
    scalars) that broadcast and keeps their shape.  ``__call__`` takes the
    same arguments and returns a float at a single point, else the array;
    so one call evaluates a whole grid.  ``evaluate`` accepts one
    coordinate vector of length ``dim``.

    The theorem densities (T1-T6, ``_Theorem``) give nan at a point with a
    nan coordinate and 0 at one with an infinite coordinate (and none that
    is nan): ``reductions._points`` sorts the points, on this path and the
    generic one, after ``_Theorem.values`` has clamped every unit
    coordinate above ``_FAR``, inf included, to ``_FAR``.

    Each class computes ``_unit``, its density at unit mean, with the same
    arguments as ``values``.
    """

    path = "exact"

    def values(self, *z, **kw):
        """Density over coordinate arrays (or scalars) that broadcast: the
        unit-mean density at ``z / gamma_bar``, divided by ``gamma_bar``
        once per coordinate.  At unit mean both steps are identities and
        are skipped."""
        g = self.gamma_bar
        if g == 1.0:
            return self._unit(*z, **kw)
        v = self._unit(*(np.divide(c, g) for c in z), **kw)
        for _ in z:
            v = v / g
        return v

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


class _Theorem(_Density):
    """A theorem density (T1-T6), as against a fine one.

    ``values`` takes a coordinate whose unit value is above ``_FAR`` as
    ``_FAR``.  Each unit-mean density is exp(-S) times a polynomial, where
    S is at least every coordinate in the support, so past S = 745.2,
    where exp(-S) underflows, it is 0 in doubles.  So it is at the clamped
    point, where the polynomial stays finite; far enough past it, the
    polynomial overflows, and 0 times inf would be nan.  The fine
    densities are evaluated at the nodes of clamped points only.
    """

    def values(self, *z, **kw):
        far = _FAR * self.gamma_bar
        # A coordinate without a far value is passed on as it is, not
        # copied: a large grid keeps its memory.
        return super().values(*(np.minimum(c, far) if np.any(c > far) else c
                                for c in z), **kw)


class ErlangSum(_Theorem):
    """Density of the sum of all K variables (Erlang of order K)."""

    dim = 1
    grouping = "sum of all K"

    def __init__(self, K, gamma_bar):
        _check_k(K, min_k=1)
        self.K = K
        self.gamma_bar = _check_scale(gamma_bar)
        self._norm = 1.0 / math.factorial(K - 1)

    def support(self, x):
        return x >= 0

    def _unit(self, x):
        return reductions._reduce(
            self.support,
            lambda x: self._norm * _pow(x, self.K - 1) * np.exp(-x), x)

    def cdf(self, x):
        """CDF over an array (or scalar) of x: 0 up to x = 0, 1 at inf, nan
        at nan."""
        y = np.maximum(np.asarray(x, dtype=float), 0.0) / self.gamma_bar
        return _erlang_cdf(self.K, y)[()]


def _erlang_cdf(K, y):
    """CDF of the unit-rate Erlang of order K over an array y >= 0, from
    positive terms.

    Below the mean K it is the Poisson upper tail e^-y sum_{j>=K} y^j/j!,
    whose terms fall from the first on: each element adds terms until they
    fall below 2^-60 of its sum, and the smaller ones after that leave the
    sum as it is.  From the mean on it is 1 - e^-y sum_{j<K} y^j/j!, where
    that sum is at most about 1/2 (and 0 where e^-y underflows).  The terms
    come by the recurrence t_j = t_{j-1} y/j, two roundings each.
    """
    out = np.empty(y.shape)
    below = y < K
    yb = y[below]
    term = np.exp(-yb)
    for j in range(1, K + 1):
        term *= yb / j
    tail, j = np.zeros(yb.shape), K
    while np.any(term > tail * 2.0 ** -60):
        tail += term
        j += 1
        term *= yb / j
    out[below] = tail
    # An infinite y has e^-y = 0 and would make 0 * inf of its terms.
    ya = np.minimum(y[~below], np.finfo(float).max)
    term = np.exp(-ya)
    head = term.copy()
    for j in range(1, K):
        term *= ya / j
        head += term
    out[~below] = 1.0 - head
    return out


def pdf_sum_all(K, gamma_bar):
    """Density object for the total sum of all ``K`` variables."""
    return ErlangSum(K, gamma_bar)


class OneVsRestAllK(_Theorem):
    """Joint density of (rank-m variable, sum of the other K-1)."""

    dim = 2
    grouping = "rank-m variable vs sum of the rest, all K"

    def __init__(self, K, m, gamma_bar):
        _check_k(K)
        if not 1 <= m <= K:
            raise DomainError("need 1 <= m <= K")
        self.K, self.m = K, m
        self.gamma_bar = _check_scale(gamma_bar)
        self._pref = _pref(K, K - m, m - 1, K - 2)

    def support(self, z1, z2):
        """Also over arrays that broadcast."""
        return reductions.t2_support(self.K, self.m, z1, z2)

    def _unit(self, z1, z2):
        """The step sum ``sum_j (-1)^j C(K-m, j) (z2 - (m-1+j) z1)_+^(K-2)``
        is ``_backend.power_difference``: nonnegative terms only.
        """
        K, m = self.K, self.m

        def formula(z1, z2):
            s = _backend.power_difference(K - m, K - 2, z2, z1, m - 1)
            return self._pref * np.exp(-(z1 + z2)) * s

        return reductions._reduce(self.support, formula, z1, z2)


def jpdf_one_vs_rest_allK(K, m, gamma_bar):
    """Joint density object for (rank-m variable, sum of the rest), all K."""
    return OneVsRestAllK(K, m, gamma_bar)


class HeadTailAllK(_Theorem):
    """Joint density of (sum of m largest, sum of K-m smallest)."""

    dim = 2
    grouping = "head sum vs tail sum, all K"

    def __init__(self, K, m, gamma_bar):
        _check_k(K)
        if not 1 <= m <= K - 1:
            raise DomainError("need 1 <= m <= K-1 (both sums nonempty)")
        self.K, self.m = K, m
        self.gamma_bar = _check_scale(gamma_bar)
        # The head is the single largest variable at m = 1; the pair
        # coincides with the one-vs-rest joint at rank 1.
        self._delegate = OneVsRestAllK(K, 1, 1.0) if m == 1 else None

    def support(self, z1, z2):
        return reductions.t3_support(self.K, self.m, z1, z2)

    def _unit(self, z1, z2):
        """``_backend.head_tail``'s sum on the cone of each point
        (module docstring): nonnegative terms only, and no rule."""
        if self._delegate is not None:
            return self._delegate._unit(z1, z2)
        K, m = self.K, self.m

        def formula(z1, z2):
            return np.exp(-(z1 + z2)) * _backend.head_tail(K, m, z1, z2)

        return reductions._reduce(self.support, formula, z1, z2)


def jpdf_headsum_vs_tailsum_allK(K, m, gamma_bar):
    """Joint density object for (head sum, tail sum) over all K."""
    return HeadTailAllK(K, m, gamma_bar)


class GscSum(_Theorem):
    """Density of the sum of the Ks largest of K variables."""

    dim = 1
    grouping = "sum of the Ks largest"

    def __init__(self, K, Ks, gamma_bar):
        _check_k(K, Ks, min_k=1)
        self.K, self.Ks = K, Ks
        self.gamma_bar = _check_scale(gamma_bar)
        if Ks >= 2:
            self.fine = FineLastHead(K, Ks, 1.0)

    def support(self, x):
        return x >= 0

    def _unit(self, x):
        """An array takes one ``reductions.t4`` rule with a row per value."""
        K = self.K
        if self.Ks == 1:
            return reductions._reduce(
                self.support,
                lambda x: K * np.exp(-x) * _pow(-np.expm1(-x), K - 1), x)
        return reductions.t4(self.fine, self.Ks, x)


def pdf_gsc_sum(K, Ks, gamma_bar):
    """Density object for the sum of the ``Ks`` largest of ``K``."""
    return GscSum(K, Ks, gamma_bar)


# -- fine joint densities, reduced by ``reductions`` --


class _FineBase(_Density):
    @property
    def grouping(self):
        return " / ".join(self.coords)

    def __init__(self, K, Ks, gamma_bar):
        _check_k(K, Ks)
        self.K, self.Ks = K, Ks
        self.gamma_bar = _check_scale(gamma_bar)

    def _cdf_pows(self, z4):
        # Unselected ranks all lie below the rank-Ks variable.
        return _pow(-np.expm1(-z4), self.K - self.Ks)


class FineOneMidLast(_FineBase):
    """Joint of (rank-1 variable, sum of ranks 2..Ks-1, rank-Ks variable):
    ``FineRankRestLast`` at m = 1, whose rest lies between z4 and z1."""

    dim = 3
    coords = ("gamma_1", "mid_sum", "gamma_Ks")

    def __init__(self, K, Ks, gamma_bar):
        if Ks < 3:
            raise DomainError("need Ks >= 3 for a nonempty middle group")
        super().__init__(K, Ks, gamma_bar)
        self._pref = _pref(K, K - Ks, Ks - 2, Ks - 3)

    def support(self, z1, z3, z4):
        return ((z4 >= 0) & (z4 <= z1) & (z3 >= (self.Ks - 2) * z4)
                & (z3 <= (self.Ks - 2) * z1))

    def _unit(self, z1, z3, z4):
        ok = (z1 >= 0) & (z3 >= 0) & (z4 >= 0) & (z4 <= z1)
        # Threshold j is (n-j) z4 + j z1.
        n = self.Ks - 2
        s = _backend.power_difference(n, n - 1, z3 - n * z4, z1 - z4, 0)
        out = (self._pref * self._cdf_pows(z4)
               * np.exp(-(z1 + z3 + z4)) * s)
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
        self._pref = _pref(K, K - Ks, m - 1, Ks - m - 1, m - 2, Ks - m - 2)

    def support(self, z1, z2, z3, z4):
        n_mid = self.Ks - self.m - 1
        return ((z4 >= 0) & (z4 <= z2) & (z1 >= (self.m - 1) * z2)
                & (z3 >= n_mid * z4) & (z3 <= n_mid * z2))

    def _unit(self, z1, z2, z3, z4):
        head = z1 - (self.m - 1) * z2
        ok = ((z1 >= 0) & (z2 >= 0) & (z3 >= 0) & (z4 >= 0) & (z4 <= z2)
              & (head >= 0))
        # Threshold j is (n-j) z4 + j z2.
        n = self.Ks - self.m - 1
        s = _backend.power_difference(n, n - 1, z3 - n * z4, z2 - z4, 0)
        out = (self._pref * self._cdf_pows(z4) * _pow(head, self.m - 2)
               * np.exp(-(z1 + z2 + z3 + z4)) * s)
        return np.where(ok, out, 0.0)


class FineRankRestLast(_FineBase):
    """Joint of (rank-m variable, sum of the other ranks 1..Ks-1, rank-Ks
    variable), 2 <= m <= Ks-2.

    Above the rank-Ks value z4 the best Ks-1 are i.i.d. unit exponentials
    shifted by z4 (memorylessness; Renyi, 1953), so the first two
    coordinates are the T2 pair of Ks-1 variables at ``(x - z4, w -
    (Ks-2) z4)``: ``OneVsRestAllK``'s step sum on shifted coordinates.  It
    is ``FineHeadMidLast`` with the head sum integrated out, in closed
    form.
    """

    dim = 3
    coords = ("gamma_m", "rest_sum", "gamma_Ks")

    def __init__(self, K, Ks, m, gamma_bar):
        if not 2 <= m <= Ks - 2:
            raise DomainError("need 2 <= m <= Ks-2 for ranks on both sides "
                              "of rank m besides rank Ks")
        super().__init__(K, Ks, gamma_bar)
        self.m = m
        self._pref = _pref(K, K - Ks, m - 1, Ks - m - 1, Ks - 3)

    def support(self, x, w, z4):
        return ((z4 >= 0) & (z4 <= x)
                & (w >= (self.m - 1) * x + (self.Ks - self.m - 1) * z4))

    def _unit(self, x, w, z4):
        ok = (x >= 0) & (w >= 0) & (z4 >= 0) & (z4 <= x)
        # Threshold j is (m-1+j) x + (n-j) z4.
        Ks, m = self.Ks, self.m
        s = _backend.power_difference(Ks - m - 1, Ks - 3, w - (Ks - 2) * z4,
                                      x - z4, m - 1)
        out = (self._pref * self._cdf_pows(z4) * np.exp(-(x + w + z4)) * s)
        return np.where(ok, out, 0.0)


class FineHeadTailLast(_FineBase):
    """Joint of (sum of ranks 1..m, sum of ranks m+1..Ks, rank-Ks variable),
    2 <= m <= Ks-2.

    Above the rank-Ks value z4 the best Ks-1 are i.i.d. unit exponentials
    shifted by z4 (memorylessness; Renyi, 1953), so the first two
    coordinates are the T3 pair of Ks-1 variables at ``(x - m z4, y -
    (Ks-m) z4)``: ``_backend.head_tail``'s sum on shifted coordinates.  It
    is ``FineHeadMidLast`` with the rank-m value integrated out, in closed
    form.
    """

    dim = 3
    coords = ("head_sum", "tail_sum", "gamma_Ks")

    def __init__(self, K, Ks, m, gamma_bar):
        if not 2 <= m <= Ks - 2:
            raise DomainError("need 2 <= m <= Ks-2 for a head of two or more "
                              "ranks and a tail of two or more")
        super().__init__(K, Ks, gamma_bar)
        self.m = m
        self._pref = _pref(K, K - Ks, Ks - 1)

    def support(self, x, y, z4):
        Ks, m = self.Ks, self.m
        h, t = x - m * z4, y - (Ks - m) * z4
        return (z4 >= 0) & (t >= 0) & (m * t <= (Ks - 1 - m) * h)

    def _unit(self, x, y, z4):
        Ks, m = self.Ks, self.m
        s = _backend.head_tail(Ks - 1, m, x - m * z4, y - (Ks - m) * z4)
        out = self._pref * self._cdf_pows(z4) * np.exp(-(x + y)) * s
        return np.where((z4 >= 0) & (s > 0), out, 0.0)


class FineHeadNextLast(_FineBase):
    """Joint of (rank-(Ks-1) variable, sum of ranks 1..Ks-2, rank-Ks
    variable): ``FineRankRestLast`` at m = Ks-1, whose rest is the head,
    in its coordinates.  Every head rank is above x, so the head's
    density is one power of its distance from (Ks-2) x."""

    dim = 3
    coords = ("gamma_m", "head_sum", "gamma_Ks")

    def __init__(self, K, Ks, gamma_bar):
        if Ks < 3:
            raise DomainError("need Ks >= 3 for a nonempty head group")
        super().__init__(K, Ks, gamma_bar)
        self._pref = _pref(K, K - Ks, Ks - 2, Ks - 3)

    def support(self, x, w, z4):
        return (z4 >= 0) & (z4 <= x) & (w >= (self.Ks - 2) * x)

    def _unit(self, x, w, z4):
        head = w - (self.Ks - 2) * x
        ok = (w >= 0) & (x >= 0) & (z4 >= 0) & (z4 <= x) & (head >= 0)
        out = (self._pref * self._cdf_pows(z4) * _pow(head, self.Ks - 3)
               * np.exp(-(w + x + z4)))
        return np.where(ok, out, 0.0)


class FineLastHead(_FineBase):
    """Joint of (rank-Ks variable, sum of ranks 1..Ks-1)."""

    dim = 2
    coords = ("gamma_Ks", "head_sum")

    def __init__(self, K, Ks, gamma_bar):
        if Ks < 2:
            raise DomainError("need Ks >= 2 for a nonempty head group")
        super().__init__(K, Ks, gamma_bar)
        self._pref = _pref(K, K - Ks, Ks - 1, Ks - 2)

    def support(self, v, w):
        return (v >= 0) & (w >= (self.Ks - 1) * v)

    def _unit(self, v, w):
        head = w - (self.Ks - 1) * v
        out = (self._pref * self._cdf_pows(v) * _pow(head, self.Ks - 2)
               * np.exp(-(v + w)))
        return np.where((v >= 0) & (head >= 0), out, 0.0)


# The fine density of each T5 case, and T6's, for ``reductions.t5_fine``
# and ``t6_fine``: cases a and c are ``FineRankRestLast`` at m = 1 and
# m = Ks-1, in closed forms of their own.
_FINES = {"a": lambda K, Ks, m, g: FineOneMidLast(K, Ks, g),
          "b": FineRankRestLast,
          "c": lambda K, Ks, m, g: FineHeadNextLast(K, Ks, g),
          "d": FineLastHead, "t6": FineHeadTailLast}


class BestKsOneVsRest(_Theorem):
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
        self.case = t5_case(Ks, m)
        self.fine = reductions.t5_fine(_FINES, K, Ks, m, 1.0)

    def support(self, x, y):
        return reductions.t5_support(self.Ks, self.m, x, y)

    def reduce_to_2d(self, x, y, order=0):
        """Density of (rank-m value x, rest-sum value y), over coordinate
        arrays (or scalars) that broadcast: the rows of one rule.

        ``order`` picks the variable of the integral where two reduction
        orders exist (1 or 2); 0 means the default, and any other value
        raises :class:`DomainError`.  The orders agree up to quadrature
        error and exist to check each other.
        """
        return self.values(x, y, order=order)

    def _unit(self, x, y, order=0):
        return reductions.t5(self.fine, self.Ks, self.m, x, y, order)


def jpdf_one_vs_rest_bestKs(K, Ks, m, gamma_bar):
    """Joint density object for (rank-m variable, rest of the best Ks)."""
    return BestKsOneVsRest(K, Ks, m, gamma_bar)


class BestKsHeadTail(_Theorem):
    """Joint of (sum of ranks 1..m, sum of ranks m+1..Ks), Ks of K."""

    dim = 2
    grouping = "head sum vs tail sum, best Ks"

    def __init__(self, K, Ks, m, gamma_bar):
        _check_k(K, Ks)
        if not 1 <= m <= Ks - 1:
            raise DomainError("need 1 <= m <= Ks-1 (both sums nonempty)")
        self.K, self.Ks, self.m = K, Ks, m
        self.gamma_bar = _check_scale(gamma_bar)
        self.fine = reductions.t6_fine(_FINES, K, Ks, m, 1.0)

    def support(self, x, y):
        return reductions.t6_support(self.Ks, self.m, x, y)

    def _unit(self, x, y):
        """The points are the rows of one ``reductions.t6`` rule."""
        return reductions.t6(self.fine, self.Ks, self.m, x, y)


def jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, gamma_bar):
    """Joint density object for (head sum, tail sum) over the best Ks."""
    return BestKsHeadTail(K, Ks, m, gamma_bar)
