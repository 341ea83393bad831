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
arrays that broadcast, and a boolean ``piecewise_polynomial``.  The
shapes, by coordinates (rank 1 = largest):

* ``FineHeadRankTail`` (T3): sum of ranks 1..m, rank m, sum of ranks m+1..K;
* ``FineLastHead`` (T4, T5d): rank Ks, sum of ranks 1..Ks-1;
* ``FineOneMidLast`` (T5a): rank 1, sum of ranks 2..Ks-1, rank Ks;
* ``FineHeadMidLast`` (T5b, T6): sum of ranks 1..m-1, rank m,
  sum of ranks m+1..Ks-1, rank Ks;
* ``FineHeadNextLast`` (T5c): sum of ranks 1..Ks-2, rank Ks-1, rank Ks.

Every reduction runs the rules of ``rules._gauss_knots`` on the knot
segments of its integrand.  Integrals that hold the rank-Ks coordinate
fixed (T3's, and the inner ones of T5b and T6) take the exact-degree
Gauss-Legendre rule alone when the fine density is piecewise polynomial;
every other integral runs the nested pair of the n-node Gauss and the
(2n+1)-node Kronrod rule, whose two sums share their nodes, and doubles n
until they agree.  The rules sum each row alone, and every power in a
closed form goes through ``_pow``: a point has the bits of its grid row.

``t3``, ``t4``, ``t5`` and ``t6`` take their points as coordinate arrays
that broadcast (or scalars, one point), keep their shape, and integrate
the points inside the support as the rows of one rule.  T5b and T6
integrate two coordinates out: their inner integrals, one per pair of a
point and a node of the outer rule, are the rows of one batch, so each
rule evaluates the fine density on the nodes of every inner segment
together, and not one small inner rule at a time.  A point with a nan
coordinate gives nan, and one with an infinite coordinate 0, without a
rule (``_reduce``).

``t2_support``, ``t3_support``, ``t5_support`` and ``t6_support`` are the
supports of the pairs, for both paths; T2 takes no reduction, only its
support.
"""

import functools

import numpy as np

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


def _closed_form(inside, formula, *z):
    """``formula`` at the points ``z`` inside the support ``inside``; every
    other point gets what ``_points`` says.  ``formula`` sees 0 for the
    coordinates of the points outside, so that no inf or nan enters it."""
    z, out, ok = _points(inside, *z)
    return np.where(ok, formula(*(np.where(ok, c, 0.0) for c in z)),
                    out)[()]


def _reduce(inside, rows, *z):
    """``rows(*z)`` at the points ``z`` inside the support ``inside``, which
    ``rows`` gets as 1-d coordinate arrays, the rows of one rule; every
    other point gets what ``_points`` says."""
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
    one-vs-rest joint (T2), which each path evaluates directly.
    """
    def rows(x, y):
        return _gauss_knots(lambda g, r: fine.values(x[r], g, y[r]),
                            y / (K - m), x / m,
                            _col(y) / np.arange(1, K - m + 1), deg=K - 3,
                            exact=fine.piecewise_polynomial)

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
    * ``"b"``: 2 <= m <= Ks-2, two nested integrals.

    ``order`` picks the variable eliminated first in cases a-c (1 or 2);
    0 means the default, 1.  The orders agree up to quadrature error and
    exist to check each other.
    """
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
    # Fine coordinates (head sum z1, rank m = x, mid sum z3, rank Ks z4),
    # z1 + z3 + z4 = y; the inner integral holds z4 fixed.
    nm = Ks - m  # selected ranks below m, inclusive of rank Ks
    j = np.arange(1, nm)
    xc, yc = _col(x), _col(y)
    outer_knots = np.concatenate(
        [(yc - (m + j - 1) * xc) / (nm - j), yc - (Ks - 2) * xc], axis=1)
    exact = fine.piecewise_polynomial
    # Each inner integral takes a pair (point, outer node z4) as its row:
    # the outer rule's row r gives the point.
    if order in (0, 1):
        def inner(z4s, r):
            # Below y - z4 - (nm-1)*x the mid-sum is outside its support,
            # so the fine density is zero there: the integral starts at
            # that edge.
            xr, yr = x[r], y[r]
            lo1 = np.maximum((m - 1) * xr, yr - z4s - (nm - 1) * xr)
            knots = _col(yr) - np.multiply.outer(z4s, nm - j) - j * _col(xr)
            return _gauss_knots(
                lambda z1, q: fine.values(z1, xr[q],
                                          yr[q] - z1 - z4s[q], z4s[q]),
                lo1, yr - nm * z4s, knots, deg=Ks - 4, exact=exact)
    else:
        def inner(z4s, r):
            xr, yr = x[r], y[r]
            hi3 = np.minimum((nm - 1) * xr, yr - z4s - (m - 1) * xr)
            knots = np.multiply.outer(z4s, nm - 1 - j) + j * _col(xr)
            return _gauss_knots(
                lambda z3, q: fine.values(yr[q] - z3 - z4s[q],
                                          xr[q], z3, z4s[q]),
                (nm - 1) * z4s, hi3, knots, deg=Ks - 4, exact=exact)
    return _gauss_knots(inner, 0.0, np.minimum(x, (y - (m - 1) * x) / nm),
                        outer_knots, deg=Ks - 3, exact=False)


# -- T6: (sum of ranks 1..m, sum of ranks m+1..Ks), best Ks --


def t6_fine(fines, K, Ks, m, param):
    """The fine density that ``t6`` reduces; ``fines`` as for ``t5_fine``."""
    # A one-variable head takes the rank-1 T5 pair's, a one-variable tail
    # the rank-Ks one (case d); any other m the case-b density of rank m.
    return t5_fine(fines, K, Ks, Ks if 1 < m == Ks - 1 else m, param)


def t6_support(Ks, m, x, y):
    return (x >= 0) & (y >= 0) & ((Ks - m) * x >= m * y)


def t6(fine, Ks, m, x, y):
    """Density of (sum x of ranks 1..m, sum y of ranks m+1..Ks).

    ``fine`` comes from ``t6_fine``.  A one-variable head is the T5 pair of
    rank 1, and a one-variable tail the fine density of rank Ks; otherwise
    the rank-m and rank-Ks values are integrated out.
    """
    if m == 1:
        return t5(fine, Ks, 1, x, y)     # the same support
    if m == Ks - 1:
        rows = lambda x, y: fine.values(y, x)
    else:
        rows = functools.partial(_t6, fine, Ks, m)
    return _reduce(functools.partial(t6_support, Ks, m), rows, x, y)


def _t6(fine, Ks, m, x, y):
    # Fine coordinates (head sum x - z2, rank m = z2, mid sum y - z4,
    # rank Ks z4); the inner integral holds z4 fixed.
    nt = Ks - m  # tail size
    j = np.arange(1, nt)
    outer_knots = (_col(y) - j * _col(x) / m) / (nt - j)
    exact = fine.piecewise_polynomial

    def inner(z4s, r):
        # One row per (point, outer node) pair.  Below (y - z4) / (nt - 1)
        # the mid-sum is outside its support, so the fine density is zero
        # there: the integral starts at that edge.
        xr, yr = x[r], y[r]
        knots = (_col(yr) - np.multiply.outer(z4s, nt - j)) / j
        return _gauss_knots(
            lambda z2, q: fine.values(xr[q] - z2, z2,
                                      yr[q] - z4s[q], z4s[q]),
            (yr - z4s) / (nt - 1), xr / m, knots, deg=Ks - 4, exact=exact)

    return _gauss_knots(inner, np.maximum(0.0, y - (nt - 1) * x / m),
                        y / nt, outer_knots, deg=Ks - 3, exact=False)
