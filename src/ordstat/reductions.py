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
arrays that broadcast, and a boolean ``piecewise_polynomial``.  On both
paths ``values`` is array code, and the scalar ``__call__(*coords)`` goes
through it.  The shapes, by coordinates (rank 1 = largest):

* ``FineHeadRankTail`` (T3): sum of ranks 1..m, rank m, sum of ranks m+1..K;
* ``FineLastHead`` (T4, T5d): rank Ks, sum of ranks 1..Ks-1;
* ``FineOneMidLast`` (T5a): rank 1, sum of ranks 2..Ks-1, rank Ks;
* ``FineHeadMidLast`` (T5b, T6): sum of ranks 1..m-1, rank m,
  sum of ranks m+1..Ks-1, rank Ks;
* ``FineHeadNextLast`` (T5c): sum of ranks 1..Ks-2, rank Ks-1, rank Ks.

Every reduction runs fixed Gauss-Legendre rules on the knot segments of
its integrand (``_gauss_knots``): the points where a term of the fine
density switches on or an inner limit changes form.  Integrals that hold
the rank-Ks coordinate fixed (T3's, and the inner ones of T5b and T6) are
polynomials between knots when the fine density is piecewise polynomial,
and then take the exact-degree rule alone.  Every other integral compares
n- and 2n-node rules, per integral.  One that the Gauss-Legendre rules
leave open at their cap goes on with tanh-sinh rules, whose nodes crowd
both segment ends: a density singular at 0, like x^(a-1), puts such an
end on the rule over the rank-Ks value.

``_gauss_knots`` integrates a batch of rows at once, each with its own
limits and knots.  ``t3``, ``t4``, ``t5`` and ``t6`` take their points as
coordinate arrays that broadcast (or scalars), keep their shape, and
integrate the points inside the support as the rows of one rule; a single
point is the same code on one row.  T5b and T6 integrate two coordinates
out: their inner integrals, one per pair of a point and a node of the
outer rule, are the rows of one batch, so each rule evaluates the fine
density on the nodes of every inner segment together, in blocks of about
``_BLOCK`` nodes, and not one small inner rule at a time.  A point with
a nan coordinate gives nan, and one with an infinite coordinate 0, without
a rule (``_reduce``).  ``_gauss_2d`` is the two-level form of the rule,
for a region without knots whose inner limits move with the outer
variable; ``apps`` integrates the MS-GSC stage probabilities with it.
"""

import functools
import math
import warnings

import numpy as np

from ordstat.errors import ConvergenceError
from ordstat.partition import t5_case

__all__ = ["t3", "t4", "t5", "t6", "t3_support", "t5_support", "t6_support",
           "t5_fine", "t6_fine"]

_EPSABS = 1e-9
_EPSREL = 1e-8
_SMOOTH_EXTRA = 3  # nodes beyond the exact count, for the smooth factor
_MAX_NODES = 128   # per knot segment, on Gauss-Legendre rules
# Integrals still open at _MAX_NODES go on with tanh-sinh rules from
# _TANH_SINH_FIRST up to 2 * _MAX_NODES nodes per segment.
_TANH_SINH_FIRST = 16
# Nodes per call of an integrand.  An exact step sum makes a few
# (nodes x terms) temporaries, so the peak memory of a batch of inner
# rules grows with this.
_BLOCK = 2 ** 10
# Half-width of the tanh-sinh rules in their own variable: the outermost
# nodes sit 6e-38 = exp(-pi*sinh(4)) of a segment from its ends, so the
# part of an x^(a-1) end singularity that they miss is about (6e-38)^a of
# the segment's integral, below 1e-12 for a >= 1/3.
_TANH_SINH_SPAN = 4.0


@functools.lru_cache(maxsize=None)
def _legendre(n):
    # Shared by every caller, so read-only.
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


# Rules on [0, 1] as ``(dl, dr, w)``: nodes at distance ``dl`` from the
# left end and ``dr = 1 - dl`` from the right, both without cancellation.
# ``generic_joint`` evaluates a factor whose argument vanishes at a
# segment end (a pdf at 0, which may be singular there) at that distance,
# never at the end.  ``_gauss_knots`` places nodes at ``dl``, so a
# singular left end, such as a rank-Ks value of 0, is never evaluated.

@functools.lru_cache(maxsize=None)
def _gauss01(n):
    x, w = _legendre(n)
    return 0.5 * (1.0 + x), 0.5 * (1.0 - x), 0.5 * w


@functools.lru_cache(maxsize=None)
def _tanh_sinh01(n):
    """n-node tanh-sinh rule: the trapezoidal rule in tau of
    x = tanh(pi/2 sinh(tau)).  Its nodes crowd both ends doubly
    exponentially, so it keeps its pace on integrable end singularities,
    where a Gauss-Legendre rule converges only algebraically."""
    tau = np.linspace(-_TANH_SINH_SPAN, _TANH_SINH_SPAN, n)
    y = 0.5 * np.pi * np.sinh(tau)
    dl, dr = 1.0 / (1.0 + np.exp(-2.0 * y)), 1.0 / (1.0 + np.exp(2.0 * y))
    return dl, dr, (tau[1] - tau[0]) * np.pi * np.cosh(tau) * dl * dr


def _tanh_sinh(n):
    # ``_tanh_sinh01`` as nodes and weights on [0, 1].
    dl, _, w = _tanh_sinh01(n)
    return dl, w


def _gauss_knots(f, lo, hi, knots=(), *, deg, exact=True):
    """Integrals of ``f`` over ``[lo, hi]``, Gauss-Legendre on knot segments.

    Scalar limits give one integral and return a float, with ``knots`` a
    sequence of points.  Array limits give one integral per row and return
    an array, with ``knots`` a ``(rows, k)`` array; no rows give an empty
    array, and ``f`` is not called.  Each row's knots are clipped into its
    interval and sorted; empty segments (and rows with ``hi <= lo``) get no
    nodes.  ``f(x, row)`` maps a flat array of nodes, and the row of each,
    to an array of values.  ``row`` is an index array, or the int 0 when
    there is one row: scalar limits, or arrays of one element.  Each rule
    calls ``f`` on the nodes of all open rows together, in blocks of whole
    segments and at most ``_BLOCK`` nodes.

    Between knots the integrand is a polynomial of degree ``deg``
    (``exact``), or such a polynomial times a smooth factor.  The
    ``deg // 2 + 1``-node rule integrates the polynomial exactly, so exact
    rows take that rule alone.  Otherwise the rule starts ``_SMOOTH_EXTRA``
    nodes higher and doubles per row as ``_doubled`` says, at
    ``_EPSABS``/``_EPSREL``; rows still open at ``_MAX_NODES`` go on with
    tanh-sinh rules, which converge at an integrable end singularity.
    """
    done = float
    if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        rows = max(lo.size, hi.size) if lo.size and hi.size else 0
        if not rows:
            return np.zeros(0)
        if rows == 1:
            lo, hi, done = lo.item(), hi.item(), np.atleast_1d
    else:
        rows = 1
    if rows == 1:
        if not hi > lo:
            return done(0.0)
        # One row: the knots inside, in order, without numpy's row
        # bookkeeping, which would cost more than a short rule.
        edges = np.array([lo, *sorted({p for p in np.ravel(knots).tolist()
                                       if lo < p < hi}), hi])
        left, right = edges[:-1, None], edges[1:, None]
        row, col = 0, None
        lo, hi = [lo], [hi]
    else:
        knots = np.asarray(knots, dtype=float).reshape(rows, -1)
        edges = np.empty((rows, knots.shape[1] + 2))
        edges[:, 0], edges[:, -1] = lo, np.maximum(hi, lo)
        np.minimum(np.maximum(knots, edges[:, :1]), edges[:, -1:],
                   out=edges[:, 1:-1])
        edges.sort(axis=1)
        lo, hi = edges[:, 0], edges[:, -1]
        keep = edges[:, 1:] > edges[:, :-1]
        row, col = np.nonzero(keep)
        left, right = edges[:, :-1][keep, None], edges[:, 1:][keep, None]
        cols = keep.shape[1]
    # Segment ends, as column vectors, one entry per segment.
    width = right - left
    mid, half = 0.5 * (right + left), 0.5 * width

    def on(table, base, scale):
        # The rule of ``table(n) = (t, w)``, with nodes base + scale * t.
        def block(b, s, r, t, w):
            vals = f((b + s * t).ravel(),
                     r if col is None else np.repeat(r, t.size))
            return vals.reshape(s.size, -1) @ w * s[:, 0]

        def rule(n, todo):
            t, w = table(n)
            b, s, r, c, at = base, scale, row, col, row
            if len(todo) < rows:
                # The segments of the open rows, and the place in todo of
                # each one's row.
                at = np.full(rows, -1)
                at[todo] = np.arange(todo.size)
                at = at[row]
                seg = np.flatnonzero(at >= 0)
                b, s, r, c, at = b[seg], s[seg], r[seg], c[seg], at[seg]
            if s.size * n <= _BLOCK:
                est = block(b, s, r, t, w) if s.size else s[:, 0]
            else:
                k = _BLOCK // n
                est = np.concatenate([
                    block(b[i:i + k], s[i:i + k],
                          r if col is None else r[i:i + k], t, w)
                    for i in range(0, s.size, k)])
            if col is None:
                return est[None]    # the one row's segments, in order
            out = np.zeros((len(todo), cols))
            out[at, c] = est
            return out
        return rule

    gauss = on(_legendre, mid, half)
    n = deg // 2 + 1
    if exact:
        total = gauss(n, range(rows)).sum(axis=1)
    else:
        total = _doubled(gauss, n + _SMOOTH_EXTRA, lo, hi, _EPSABS, _EPSREL,
                         then=(on(_tanh_sinh, left, width), _TANH_SINH_FIRST,
                               2 * _MAX_NODES))
    return done(total[0]) if col is None else total


def _gauss_2d(f, lo, hi, inner, *, deg, epsabs, epsrel):
    """Integral of ``f(s, v)`` over ``lo <= s <= hi``, ``v`` in ``inner(s)``.

    ``inner`` maps an array of outer nodes to the arrays ``(a, b)`` of
    their inner limits.  The integrand is smooth in ``s`` and, in ``v``, a
    polynomial of degree ``deg`` times a smooth factor, with no knot on
    either level.  The n-node rule puts n nodes on ``s`` and maps the same
    n onto each ``[a, b]``; ``f`` gets the ``(n, n)`` node arrays in one
    call.  n starts as in ``_gauss_knots`` and doubles on both levels as
    ``_doubled`` says.  A value that is not finite raises
    :class:`ConvergenceError`.
    """
    if not hi > lo:
        return 0.0
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def rule(n, todo):
        x, w = _legendre(n)
        s = mid + half * x
        a, b = inner(s)
        vmid, vhalf = 0.5 * (b + a), 0.5 * (b - a)
        vals = f(s[:, None], vmid[:, None] + vhalf[:, None] * x)
        est = half * (w @ (vhalf * (vals @ w)))
        if not np.isfinite(est):
            raise ConvergenceError(
                f"{n}x{n}-node rule on [{lo:g}, {hi:g}] gave {est}")
        return np.array([[est]])

    return float(_doubled(rule, deg // 2 + 1 + _SMOOTH_EXTRA, [lo], [hi],
                          epsabs, epsrel)[0])


def _doubled(rule, n, lo, hi, epsabs, epsrel, cap=None, then=None):
    """The n/2n loop of the Gauss rules, over a batch of integrals.

    Integral i runs over ``[lo[i], hi[i]]``.  ``rule(n, todo)`` returns the
    n-node estimates of the integrals indexed by the array ``todo``, one row
    per integral and one column per segment.  n doubles until an integral's
    n- and 2n-node sums, added over segments, agree to ``epsabs``/``epsrel``;
    that integral then stops, and the rule runs on the others only.  The
    array of 2n-node totals is returned, with an ``IntegrationWarning`` if
    that takes ``cap`` nodes per segment (and level) or more; ``cap``
    defaults to ``_MAX_NODES``.  ``then``, a triple ``(rule, n, cap)`` of
    the same kind, takes over the integrals still open at ``cap``.  Those
    that it leaves open too warn, and keep the estimate of whichever rule
    ended with the smaller n/2n difference.
    """
    cap = _MAX_NODES if cap is None else cap
    out, todo, err, n = _doubling(rule, n, len(lo), epsabs, epsrel, cap)
    if todo is None:
        return out
    if then is not None:
        more, n, cap = then
        out2, left, err2, n = _doubling(lambda n, sub: more(n, todo[sub]), n,
                                        todo.size, epsabs, epsrel, cap)
        first, out[todo] = out[todo], out2
        if left is None:
            return out
        keep = left[err2 >= err[left]]     # the first rule ended closer
        out[todo[keep]] = first[keep]
        todo, err = todo[left], np.minimum(err2, err[left])
    i = int(np.argmax(err))
    # scipy's class, which callers filter on, imported here so that scipy
    # loads only when a rule fails to converge.
    from scipy.integrate import IntegrationWarning
    warnings.warn(
        f"{n}-node rule on [{lo[todo[i]]:g}, {hi[todo[i]]:g}] did not "
        f"converge: n/2n difference {err[i]:.3g}",
        IntegrationWarning, stacklevel=3)
    return out


def _doubling(rule, n, size, epsabs, epsrel, cap):
    """``_doubled``'s loop for one rule.  Returns the totals, then the
    indices of the integrals still open at ``cap``, their last n/2n
    differences (both None if none is open) and the last n."""
    todo = np.arange(size)
    out = np.empty(size)
    est = rule(n, todo)
    while True:
        n *= 2
        prev, est = est, rule(n, todo)
        total = est.sum(axis=1)
        err = np.abs(est - prev).sum(axis=1)
        out[todo] = total
        # The test runs on Python floats: most calls hold one integral,
        # where numpy's per-call overhead would dominate.
        open_ = [i for i, (v, e) in enumerate(zip(total.tolist(),
                                                   err.tolist()))
                 if not e <= max(epsabs, epsrel * abs(v))]
        if not open_:
            return out, None, None, n
        if n >= cap:
            return out, todo[open_], err[open_], n
        todo, est = todo[open_], est[open_]


def _points(inside, *z):
    """Points ``z``, coordinate arrays that broadcast, for a formula or rule.

    Returns the coordinates, the densities that no formula gives (nan
    where a coordinate is nan, else 0) and the mask of the points to
    evaluate: those with finite coordinates inside the support,
    ``inside(*z)``.  Arrays come back with one shape.  Scalars are one
    point: Python floats, with a bool mask and a 0-d array of densities.
    """
    if all(isinstance(c, (int, float)) for c in z):
        # One point, on Python floats: numpy's per-call overhead would cost
        # more than the test, and than a short rule.
        z = [float(c) for c in z]
        nan = any(map(math.isnan, z))
        ok = all(map(math.isfinite, z)) and bool(inside(*z))
        return z, np.array(np.nan if nan else 0.0), ok
    z = [np.asarray(c, dtype=float) for c in z]
    if len(z) > 1:
        z = np.broadcast_arrays(*z)
    nan, ok = np.isnan(z[0]), np.isfinite(z[0])
    for c in z[1:]:
        nan, ok = nan | np.isnan(c), ok & np.isfinite(c)
    return z, np.where(nan, np.nan, 0.0), ok & inside(*z)


def _reduce(inside, rows, *z):
    """``rows(*z)`` at the points ``z`` inside the support ``inside``, which
    are the rows of one rule; every other point gets what ``_points`` says.

    ``rows`` takes one array per coordinate, or the floats of a single
    point: the same code on one row.  Its integrands read a point's
    coordinates with ``_at``.
    """
    z, out, ok = _points(inside, *z)
    if ok is True:
        return np.float64(rows(*z))
    if ok is not False:
        out[ok] = rows(*(c[ok] for c in z))
    return out[()]


def _at(v, r):
    # The values ``v`` of a rule's rows at the rows ``r`` of its nodes (the
    # int 0 in a rule of one row).  A float is one point's value, the same
    # for every row.
    return v if isinstance(v, float) else v[r]


def _col(v):
    # ``v`` as a column against the knots of each row (one row for a float).
    return np.asarray(v).reshape(-1, 1)


# -- T3: (sum of ranks 1..m, sum of ranks m+1..K), all K --


def t3_support(K, m, z1, z2):
    return (z1 >= 0) & (z2 >= 0) & ((K - m) * z1 >= m * z2)


def t3(fine, K, m, z1, z2):
    """T3 for ``m >= 2`` from ``FineHeadRankTail``, over the rank-m value.

    With ``m == 1`` the head is one variable and the pair is the rank-1
    one-vs-rest joint (T2), which each path evaluates directly.
    """
    def rows(x, y):
        return _gauss_knots(lambda g, r: fine.values(_at(x, r), g, _at(y, r)),
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
        return _gauss_knots(lambda v, r: fine.values(v, _at(x, r) - v), 0.0,
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
            lambda z4, r: fine.values(_at(x, r), _at(y, r) - z4, z4),
            np.maximum(0.0, y - (Ks - 2) * x), y / (Ks - 1), knots,
            deg=Ks - 3, exact=False)
    knots = np.concatenate(
        [((Ks - 2 - j) * yc + j * xc) / (Ks - 1 - j), yc - xc], axis=1)
    return _gauss_knots(
        lambda z3, r: fine.values(_at(x, r), z3, _at(y, r) - z3),
        np.maximum((Ks - 2) * y / (Ks - 1), y - x), np.minimum((Ks - 2) * x, y),
        knots, deg=Ks - 3, exact=False)


def _t5c(fine, Ks, x, y, order):
    # Fine coordinates (head sum z1, rank Ks-1 = x, rank Ks z4), z1 + z4 = y.
    if order in (0, 1):
        return _gauss_knots(
            lambda z4, r: fine.values(_at(y, r) - z4, _at(x, r), z4), 0.0,
            np.minimum(x, y - (Ks - 2) * x), deg=Ks - 3, exact=False)
    return _gauss_knots(
        lambda z1, r: fine.values(z1, _at(x, r), _at(y, r) - z1),
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
            # Below y - z4 - (nm-1)*x the mid-sum exceeds its support and
            # the step sum is cancellation noise around zero; stop the
            # integral at the true edge.
            xr, yr = _at(x, r), _at(y, r)
            lo1 = np.maximum((m - 1) * xr, yr - z4s - (nm - 1) * xr)
            knots = _col(yr) - np.multiply.outer(z4s, nm - j) - j * _col(xr)
            return _gauss_knots(
                lambda z1, q: fine.values(z1, _at(xr, q),
                                          _at(yr, q) - z1 - z4s[q], z4s[q]),
                lo1, yr - nm * z4s, knots, deg=Ks - 4, exact=exact)
    else:
        def inner(z4s, r):
            xr, yr = _at(x, r), _at(y, r)
            hi3 = np.minimum((nm - 1) * xr, yr - z4s - (m - 1) * xr)
            knots = np.multiply.outer(z4s, nm - 1 - j) + j * _col(xr)
            return _gauss_knots(
                lambda z3, q: fine.values(_at(yr, q) - z3 - z4s[q],
                                          _at(xr, q), z3, z4s[q]),
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
        # the mid-sum exceeds its support and the step sum is cancellation
        # noise around zero.
        xr, yr = _at(x, r), _at(y, r)
        knots = (_col(yr) - np.multiply.outer(z4s, nt - j)) / j
        return _gauss_knots(
            lambda z2, q: fine.values(_at(xr, q) - z2, z2,
                                      _at(yr, q) - z4s[q], z4s[q]),
            (yr - z4s) / (nt - 1), xr / m, knots, deg=Ks - 4, exact=exact)

    return _gauss_knots(inner, np.maximum(0.0, y - (nt - 1) * x / m),
                        y / nt, outer_knots, deg=Ks - 3, exact=False)
