"""Reductions of fine joint densities to the theorem families T4-T6.

The joint MGF of a contiguous grouping of ranks, with the rank-Ks variable
kept apart when Ks < K, inverts to a *fine* joint density.  A requested
pair of partial sums follows by integrating the rank-Ks value out, along
the line on which the requested sums stay fixed.  That step does not
depend on the distribution, so it is written here once; each path supplies
the fine densities:

* ``exact_exp``: closed forms for the exponential distribution;
* ``generic_joint``: pdf, CDF and kernel-power inverses of any distribution.

A fine density is an object with ``values(*coords)`` over coordinate
arrays that broadcast.  The shapes, by coordinates (rank 1 = largest):

* ``FineLastHead`` (T4, T5d): rank Ks, sum of ranks 1..Ks-1;
* ``FineRankRestLast`` (T5a-c): rank m, sum of the other ranks 1..Ks-1,
  rank Ks, for 1 <= m <= Ks-1; the exact path evaluates m = 1 (T5a) and
  m = Ks-1 (T5c) by their own closed forms, ``FineOneMidLast`` and
  ``FineHeadNextLast``, in the same coordinates;
* ``FineHeadTailLast`` (T6): sum of ranks 1..m, sum of ranks m+1..Ks,
  rank Ks.

Above the rank-Ks value the best Ks-1 are i.i.d. with the law truncated
there (Renyi), so each fine density is the density of the rank-Ks value,
times the CDF power of the ranks below it, times the T1 density or the
T2 or T3 pair of Ks-1 variables above that floor.  The exact path
evaluates each in closed form, the generic path by its row forms above
a floor, whose T2 and T3 at the floor 0 are ``t2_jpdf`` and ``t3_jpdf``;
its T3 form integrates the rank-m value itself.  So every family here
integrates one coordinate, on the line of the requested sums, by default
the rank-Ks value.

Every reduction runs the rules of ``rules._gauss_knots`` on the knot
segments of its integrand: the nested pair of the n-node Gauss and the
(2n+1)-node Kronrod rule, whose two sums share their nodes, doubling n
until they agree.  The rules sum each row alone, and every power in a
closed form goes through ``_pow``: a point has the bits of its grid row.

``t4``, ``t5`` and ``t6`` take their points as coordinate arrays that
broadcast (or scalars, one point), keep their shape, and integrate the
points inside the support as the rows of one rule.  A point with a nan
coordinate gives nan, and one with an infinite coordinate 0, without a
rule (``_reduce``); so does a coordinate beyond ``_HUGE`` (2^500, about
3e150), which counts as infinite.

``t2_support`` and ``t3_support`` are the supports of the pairs, for both
paths, and ``t5_support`` and ``t6_support`` the same predicates at K = Ks;
T2 and T3 take no reduction here, only their supports.
"""

import functools
import math

import numpy as np

from ordstat.errors import DomainError
from ordstat.partition import t5_case
from ordstat.rules import _gauss_knots

__all__ = ["t4", "t5", "t6", "t2_support", "t3_support", "t5_support",
           "t6_support", "t5_fine", "t6_fine"]


# A coordinate beyond this counts as infinite.  The supports, limits and
# knots take small multiples of the coordinates, and a pdf may square them
# (the half-normal's does): at 2^500 none of these overflows, where the
# densities of the distributions here are 0 in doubles.
_HUGE = 2.0 ** 500


def _points(inside, *z):
    """Points ``z``, coordinate arrays (or scalars) that broadcast, for a
    formula or rule.

    Returns the coordinates as arrays of one shape, the densities that no
    formula gives (nan where a coordinate is nan, else 0) and the mask of
    the points to evaluate: those with finite coordinates inside the
    support, ``inside(*z)``.  A coordinate beyond ``_HUGE`` counts as
    infinite.
    """
    z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in z))
    nan, ok = np.isnan(z[0]), np.abs(z[0]) <= _HUGE
    for c in z[1:]:
        nan, ok = nan | np.isnan(c), ok & (np.abs(c) <= _HUGE)
    # Beyond _HUGE a support's products may overflow to inf; those points
    # are not evaluated either way.
    with np.errstate(over="ignore"):
        return z, np.where(nan, np.nan, 0.0), ok & inside(*z)


def _pow(x, k):
    # ``x ** k`` by numpy's array loop, for a 0-d array too, which a ufunc
    # returns as a scalar: a scalar's ``**`` calls libm's ``pow``, an ulp
    # off the array loop at about 5% of inputs.
    return np.asarray(x) ** k


def _pref(K, *den):
    """The combinatorial factor K! / prod(d! for d in den) of a density,
    correctly rounded, as Python's true division of ints is."""
    return math.factorial(K) / math.prod(map(math.factorial, den))


def _reduce(inside, rows, *z):
    """``rows(*z)`` at the points ``z`` inside the support ``inside``, which
    ``rows`` gets as 1-d coordinate arrays: the rows of one rule, or the
    arguments of a closed form.  Every other point gets what ``_points``
    says, and no formula sees it."""
    z, out, ok = _points(inside, *z)
    out[ok] = rows(*(c[ok] for c in z))
    return out[()]


def _col(v):
    # ``v`` as a column against the knots of each row.
    return v[:, None]


# -- T2: (rank-m variable, sum of the other K-1), all K --


def t2_support(K, m, z1, z2):
    # Rank 1 is at least each of the other K-1, rank m at most each of
    # the m-1 above it.
    edge = z2 <= (K - 1) * z1 if m == 1 else z2 >= (m - 1) * z1
    return (z1 >= 0) & (z2 >= 0) & edge


# -- T3: (sum of ranks 1..m, sum of ranks m+1..K), all K --


def t3_support(K, m, z1, z2):
    return (z1 >= 0) & (z2 >= 0) & ((K - m) * z1 >= m * z2)


# T5's pair has the support of T2's at K = Ks, and T6's that of T3's:
# the unselected ranks below the rank-Ks value bound neither sum.
t5_support = t2_support
t6_support = t3_support


# -- T4: sum of the Ks largest --


def t4(fine, Ks, x):
    """T4 for ``Ks >= 2`` from ``FineLastHead``, over the rank-Ks value.

    With ``Ks == 1`` the sum is the largest variable, whose density each
    path evaluates directly.
    """
    def rows(x):
        return _gauss_knots(lambda v, r: fine.values(v, x[r] - v), 0.0,
                            x / Ks, deg=Ks - 2, exact=False)

    return _reduce(lambda x: x >= 0, rows, x)


# -- T5: (rank-m variable, sum of the other best Ks-1) --


def t5_fine(fines, K, Ks, m, param):
    """The fine density that ``t5`` reduces for rank m of the best Ks.

    ``fines`` maps each ``partition.t5_case`` letter to a path's class of
    the shape that case reduces (module docstring), which takes m in
    cases a-c; ``param``, the classes' last constructor argument, fixes
    the distribution.
    """
    case = t5_case(Ks, m)
    if case == "d":
        return fines[case](K, Ks, param)
    return fines[case](K, Ks, m, param)


def t5(fine, Ks, m, x, y, order=0):
    """Density of (rank-m value x, sum y of the other best Ks-1).

    ``fine`` comes from ``t5_fine``.  The cases of ``partition.t5_case``:

    * ``"d"``: m == Ks, the fine density itself.  With Ks == 2 and m == 1
      the pair is (rank 1, rank 2), the same density with its arguments
      swapped.
    * ``"a"``-``"c"``: 1 <= m <= Ks-1 (Ks >= 3), one integral over the
      rank-Ks value of ``FineRankRestLast`` (``_t5b``).

    ``order`` picks the variable of the integral in cases a-c: 1 the
    rank-Ks value, 2 the rest sum; 0 means the default, 1.  The orders
    agree up to quadrature error and exist to check each other.  Any
    other ``order`` raises :class:`DomainError`.
    """
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, not {order!r}")
    if t5_case(Ks, m) == "d":
        rows = (lambda x, y: fine.values(y, x)) if m == 1 else fine.values
    else:
        rows = functools.partial(_t5b, fine, Ks, m, order=order)
    return _reduce(functools.partial(t5_support, Ks, m), rows, x, y)


def _t5b(fine, Ks, m, x, y, order):
    # Fine coordinates (rank m = x, rest sum w, rank Ks z4), w + z4 = y.
    # Knot j is where w - (Ks-2) z4 reaches the j-th threshold of the step
    # sum, (m-1+j) (x - z4); j = 0 is the upper end of z4.  With m == 1
    # the rest are the Ks-2 ranks below x, so w is at most (Ks-2) x.
    nm = Ks - m  # selected ranks below m, inclusive of rank Ks
    j = np.arange(1, nm)
    xc, yc = _col(x), _col(y)
    w_max = (Ks - 2) * x if m == 1 else np.inf
    if order in (0, 1):
        return _gauss_knots(
            lambda z4, r: fine.values(x[r], y[r] - z4, z4),
            np.maximum(0.0, y - w_max), np.minimum(x, (y - (m - 1) * x) / nm),
            (yc - (m - 1 + j) * xc) / (nm - j), deg=Ks - 3, exact=False)
    return _gauss_knots(
        lambda w, r: fine.values(x[r], w, y[r] - w),
        np.maximum(((nm - 1) * y + (m - 1) * x) / nm, y - x),
        np.minimum(y, w_max),
        ((nm - 1 - j) * yc + (m - 1 + j) * xc) / (nm - j), deg=Ks - 3,
        exact=False)


# -- T6: (sum of ranks 1..m, sum of ranks m+1..Ks), best Ks --


def t6_fine(fines, K, Ks, m, param):
    """The fine density that ``t6`` reduces; ``fines`` as for ``t5_fine``,
    with ``FineHeadTailLast``'s class under ``"t6"``."""
    # A one-variable head takes the rank-1 T5 pair's, a one-variable tail
    # the rank-Ks one (case d); any other m the head/tail/rank-Ks density.
    if 1 < m < Ks - 1:
        return fines["t6"](K, Ks, m, param)
    return t5_fine(fines, K, Ks, m if m == 1 else Ks, param)


def t6(fine, Ks, m, x, y):
    """Density of (sum x of ranks 1..m, sum y of ranks m+1..Ks).

    ``fine`` comes from ``t6_fine``.  A one-variable head is the T5 pair of
    rank 1, and a one-variable tail the fine density of rank Ks; otherwise
    the rank-Ks value is integrated out of ``FineHeadTailLast``.
    """
    if m == 1:
        return t5(fine, Ks, 1, x, y)     # the same support
    if m == Ks - 1:
        rows = lambda x, y: fine.values(y, x)
    else:
        rows = functools.partial(_t6, fine, Ks, m)
    return _reduce(functools.partial(t6_support, Ks, m), rows, x, y)


def _t6(fine, Ks, m, x, y):
    # Fine coordinates (head sum x, tail sum y, rank Ks z4).  Knot j is
    # where the tail share of the best Ks-1 above z4 crosses a cone edge,
    # m (y - (Ks-m) z4) = j (x - m z4); j = Ks-m-1 is the support's edge.
    nt = Ks - m  # tail size
    j = np.arange(1, nt)
    return _gauss_knots(lambda z4, r: fine.values(x[r], y[r], z4),
                        np.maximum(0.0, y - (nt - 1) * x / m), y / nt,
                        (_col(y) - j * _col(x) / m) / (nt - j), deg=Ks - 3,
                        exact=False)
