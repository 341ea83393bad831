"""Reductions of fine joint densities to the theorem families T3-T6.

The joint MGF of a contiguous grouping of ranks, with the rank-Ks variable
kept apart when Ks < K, inverts to a *fine* joint density.  A requested
pair of partial sums follows by integrating the extra coordinates out,
along lines on which the requested sums stay fixed.  That step does not
depend on the distribution, so it is written here once; each path supplies
the fine densities:

* ``exact_exp``: closed forms for the exponential distribution;
* ``generic_joint``: pdf, CDF and kernel-power inverses of any distribution.

A fine density is an object with ``values(*coords)`` over coordinate
arrays that broadcast.  The shapes, by coordinates (rank 1 = largest):

* ``FineHeadRankTail`` (T3, generic path only): sum of ranks 1..m,
  rank m, sum of ranks m+1..K;
* ``FineLastHead`` (T4, T5d): rank Ks, sum of ranks 1..Ks-1;
* ``FineOneMidLast`` (T5a): rank 1, sum of ranks 2..Ks-1, rank Ks;
* ``FineRankRestLast`` (T5b): rank m, sum of the other ranks 1..Ks-1,
  rank Ks;
* ``FineHeadNextLast`` (T5c): sum of ranks 1..Ks-2, rank Ks-1, rank Ks;
* ``FineHeadTailLast`` (T6): sum of ranks 1..m, sum of ranks m+1..Ks,
  rank Ks.

Above the rank-Ks value the best Ks-1 are i.i.d., so ``FineRankRestLast``
is the T2 pair of Ks-1 variables above a floor at the rank-Ks value, and
``FineHeadTailLast`` the T3 pair.  The exact path evaluates both in
closed form; the generic path's ``FineHeadTailLast`` integrates the
rank-m value out of the four-group ``FineHeadMidLast`` (sum of ranks
1..m-1, rank m, sum of ranks m+1..Ks-1, rank Ks) itself.  So no family
here integrates two coordinates out: T3 (generic) integrates the rank-m
value, and T4-T6 one coordinate on the line of the requested sums, by
default the rank-Ks value.  The exact path's T3 takes no rule at all.

Every reduction runs the rules of ``rules._gauss_knots`` on the knot
segments of its integrand: the nested pair of the n-node Gauss and the
(2n+1)-node Kronrod rule, whose two sums share their nodes, doubling n
until they agree.  The rules sum each row alone, and every power in a
closed form goes through ``_pow``: a point has the bits of its grid row.

``t3``, ``t4``, ``t5`` and ``t6`` take their points as coordinate arrays
that broadcast (or scalars, one point), keep their shape, and integrate
the points inside the support as the rows of one rule.  A point with a
nan coordinate gives nan, and one with an infinite coordinate 0, without
a rule (``_reduce``).

``t2_support``, ``t3_support``, ``t5_support`` and ``t6_support`` are the
supports of the pairs, for both paths; T2 takes no reduction, only its
support.
"""

import functools
import math

import numpy as np

from ordstat.errors import DomainError
from ordstat.partition import t5_case
from ordstat.rules import _gauss_knots

__all__ = ["t3", "t4", "t5", "t6", "t2_support", "t3_support", "t5_support",
           "t6_support", "t5_fine", "t6_fine"]


def _points(inside, *z):
    """Points ``z``, coordinate arrays (or scalars) that broadcast, for a
    formula or rule.

    Returns the coordinates as arrays of one shape, the densities that no
    formula gives (nan where a coordinate is nan, else 0) and the mask of
    the points to evaluate: those with finite coordinates inside the
    support, ``inside(*z)``.
    """
    z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in z))
    nan, ok = np.isnan(z[0]), np.isfinite(z[0])
    for c in z[1:]:
        nan, ok = nan | np.isnan(c), ok & np.isfinite(c)
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


def t3(fine, K, m, z1, z2):
    """T3 for ``m >= 2`` from ``FineHeadRankTail``, over the rank-m value.

    With ``m == 1`` the head is one variable and the pair is the rank-1
    one-vs-rest joint (T2), which each path evaluates directly.  The
    exact path needs no rule at all (``exact_exp.HeadTailAllK``).
    """
    def rows(x, y):
        return _gauss_knots(lambda g, r: fine.values(x[r], g, y[r]),
                            y / (K - m), x / m,
                            _col(y) / np.arange(1, K - m + 1), deg=K - 3,
                            exact=False)

    return _reduce(functools.partial(t3_support, K, m), rows, z1, z2)


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
    the shape that case reduces (module docstring); ``param``, the classes'
    last constructor argument, fixes the distribution.
    """
    case = t5_case(Ks, m)
    if case == "b":
        return fines[case](K, Ks, m, param)
    return fines[case](K, Ks, param)


def t5_support(Ks, m, x, y):
    case = t5_case(Ks, m)
    if case == "d":
        edge = x >= y if m == 1 else y >= (Ks - 1) * x
    elif case == "a":
        edge = y <= (Ks - 1) * x
    elif case == "c":
        edge = y >= (Ks - 2) * x
    else:
        edge = y >= (m - 1) * x
    return (x >= 0) & (y >= 0) & edge


def t5(fine, Ks, m, x, y, order=0):
    """Density of (rank-m value x, sum y of the other best Ks-1).

    ``fine`` comes from ``t5_fine``.  The cases of ``partition.t5_case``:

    * ``"d"``: m == Ks, the fine density itself.  With Ks == 2 and m == 1
      the pair is (rank 1, rank 2), the same density with its arguments
      swapped.
    * ``"a"``: m == 1 (Ks >= 3), one integral.
    * ``"c"``: m == Ks-1 (Ks >= 3), one integral.
    * ``"b"``: 2 <= m <= Ks-2, one integral.

    ``order`` picks the variable of the integral in cases a-c: 1 the
    rank-Ks value, 2 the other coordinate on the line; 0 means the
    default, 1.  The orders agree up to quadrature error and exist to
    check each other.  Any other ``order`` raises :class:`DomainError`.
    """
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, not {order!r}")
    case = t5_case(Ks, m)
    if case == "d":
        rows = (lambda x, y: fine.values(y, x)) if m == 1 else fine.values
    elif case == "a":
        rows = functools.partial(_t5a, fine, Ks, order=order)
    elif case == "c":
        rows = functools.partial(_t5c, fine, Ks, order=order)
    else:
        rows = functools.partial(_t5b, fine, Ks, m, order=order)
    return _reduce(functools.partial(t5_support, Ks, m), rows, x, y)


def _t5a(fine, Ks, x, y, order):
    # Fine coordinates (rank 1 = x, mid sum z3, rank Ks z4), z3 + z4 = y.
    j = np.arange(1, Ks - 1)
    xc, yc = _col(x), _col(y)
    if order in (0, 1):
        knots = np.concatenate([(yc - j * xc) / (Ks - 1 - j), xc], axis=1)
        return _gauss_knots(
            lambda z4, r: fine.values(x[r], y[r] - z4, z4),
            np.maximum(0.0, y - (Ks - 2) * x), y / (Ks - 1), knots,
            deg=Ks - 3, exact=False)
    knots = np.concatenate(
        [((Ks - 2 - j) * yc + j * xc) / (Ks - 1 - j), yc - xc], axis=1)
    return _gauss_knots(
        lambda z3, r: fine.values(x[r], z3, y[r] - z3),
        np.maximum((Ks - 2) * y / (Ks - 1), y - x), np.minimum((Ks - 2) * x, y),
        knots, deg=Ks - 3, exact=False)


def _t5c(fine, Ks, x, y, order):
    # Fine coordinates (head sum z1, rank Ks-1 = x, rank Ks z4), z1 + z4 = y.
    if order in (0, 1):
        return _gauss_knots(
            lambda z4, r: fine.values(y[r] - z4, x[r], z4), 0.0,
            np.minimum(x, y - (Ks - 2) * x), deg=Ks - 3, exact=False)
    return _gauss_knots(
        lambda z1, r: fine.values(z1, x[r], y[r] - z1),
        np.maximum((Ks - 2) * x, y - x), y, deg=Ks - 3, exact=False)


def _t5b(fine, Ks, m, x, y, order):
    # Fine coordinates (rank m = x, rest sum w, rank Ks z4), w + z4 = y.
    # Knot j is where w - (Ks-2) z4 reaches the j-th threshold of the step
    # sum, (m-1+j) (x - z4); j = 0 is the upper end of z4.
    nm = Ks - m  # selected ranks below m, inclusive of rank Ks
    j = np.arange(1, nm)
    xc, yc = _col(x), _col(y)
    if order in (0, 1):
        return _gauss_knots(
            lambda z4, r: fine.values(x[r], y[r] - z4, z4),
            0.0, np.minimum(x, (y - (m - 1) * x) / nm),
            (yc - (m - 1 + j) * xc) / (nm - j), deg=Ks - 3, exact=False)
    return _gauss_knots(
        lambda w, r: fine.values(x[r], w, y[r] - w),
        np.maximum(((nm - 1) * y + (m - 1) * x) / nm, y - x), y,
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


def t6_support(Ks, m, x, y):
    return (x >= 0) & (y >= 0) & ((Ks - m) * x >= m * y)


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
