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
limits and knots.  T5b and T6 integrate two coordinates out: their inner
integrals, one per node of the outer rule, are the rows of one batch,
so each rule evaluates the fine density on the nodes of every inner
segment together, in blocks of about ``_BLOCK`` nodes, and not one small
inner rule at a time.  ``t4`` takes an array of x as rows the same way,
so a grid of T4 values is one rule.  ``_gauss_2d`` is the two-level form
of the rule, for a region without knots whose inner limits move with the
outer variable; ``apps`` integrates the MS-GSC stage probabilities with it.
"""

import functools
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
    an array, with ``knots`` a ``(rows, k)`` array.  Each row's knots are
    clipped into its interval and sorted; empty segments (and rows with
    ``hi <= lo``) get no nodes.  ``f(x, row)`` maps a flat array of nodes,
    and the row of each (the int 0 for scalar limits), to an array of
    values.  Each rule calls it on the nodes of all open rows together, in
    blocks of whole segments and at most ``_BLOCK`` nodes.

    Between knots the integrand is a polynomial of degree ``deg``
    (``exact``), or such a polynomial times a smooth factor.  The
    ``deg // 2 + 1``-node rule integrates the polynomial exactly, so exact
    rows take that rule alone.  Otherwise the rule starts ``_SMOOTH_EXTRA``
    nodes higher and doubles per row as ``_doubled`` says, at
    ``_EPSABS``/``_EPSREL``; rows still open at ``_MAX_NODES`` go on with
    tanh-sinh rules, which converge at an integrable end singularity.
    """
    if not (isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray)):
        if not hi > lo:
            return 0.0
        # One row: the knots inside, in order, without numpy's row
        # bookkeeping, which would cost more than a short rule.
        edges = np.array([lo, *sorted({float(p) for p in knots
                                       if lo < p < hi}), hi])
        left, right = edges[:-1, None], edges[1:, None]
        row, col, rows = 0, None, 1
        lo, hi = [lo], [hi]
    else:
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        hi = np.maximum(hi, lo)
        knots = np.asarray(knots, dtype=float).reshape(lo.size, -1)
        edges = np.column_stack(
            [lo, np.clip(knots, lo[:, None], hi[:, None]), hi])
        edges.sort(axis=1)
        row, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
        left, right = edges[row, col, None], edges[row, col + 1, None]
        rows, cols = lo.size, edges.shape[1] - 1
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
        est = gauss(n, range(rows))
        return float(est.sum()) if col is None else est.sum(axis=1)
    total = _doubled(gauss, n + _SMOOTH_EXTRA, lo, hi, _EPSABS, _EPSREL,
                     then=(on(_tanh_sinh, left, width), _TANH_SINH_FIRST,
                           2 * _MAX_NODES))
    return float(total[0]) if col is None else total


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


# -- T3: (sum of ranks 1..m, sum of ranks m+1..K), all K --


def t3_support(K, m, z1, z2):
    return z1 >= 0 and z2 >= 0 and (K - m) * z1 >= m * z2


def t3(fine, K, m, z1, z2):
    """T3 for ``m >= 2`` from ``FineHeadRankTail``, over the rank-m value.

    With ``m == 1`` the head is one variable and the pair is the rank-1
    one-vs-rest joint (T2), which each path evaluates directly.
    """
    if not t3_support(K, m, z1, z2):
        return 0.0
    knots = [z2 / j for j in range(1, K - m + 1)]
    return _gauss_knots(lambda g, _: fine.values(z1, g, z2), z2 / (K - m),
                        z1 / m, knots, deg=K - 3,
                        exact=fine.piecewise_polynomial)


# -- T4: sum of the Ks largest --


def t4(fine, Ks, x):
    """T4 for ``Ks >= 2`` from ``FineLastHead``, over the rank-Ks value.

    An array of x gives one rule with a row per value, and an array of
    densities; a value below 0 gives 0.  With ``Ks == 1`` the sum is the
    largest variable, whose density each path evaluates directly.
    """
    xs = np.ravel(x).astype(float)
    return _gauss_knots(lambda v, r: fine.values(v, xs[r] - v), 0.0,
                        xs / Ks if np.ndim(x) else x / Ks, deg=Ks - 2,
                        exact=False)


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
    if x < 0 or y < 0:
        return False
    case = t5_case(Ks, m)
    if case == "d":
        return x >= y if m == 1 else y >= (Ks - 1) * x
    if case == "a":
        return y <= (Ks - 1) * x
    if case == "c":
        return y >= (Ks - 2) * x
    return y >= (m - 1) * x


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
    if not t5_support(Ks, m, x, y):
        return 0.0
    case = t5_case(Ks, m)
    if case == "d":
        return fine(y, x) if m == 1 else fine(x, y)
    if case == "a":
        return _t5a(fine, Ks, x, y, order)
    if case == "c":
        return _t5c(fine, Ks, x, y, order)
    return _t5b(fine, Ks, m, x, y, order)


def _t5a(fine, Ks, x, y, order):
    # Fine coordinates (rank 1 = x, mid sum z3, rank Ks z4), z3 + z4 = y.
    if order in (0, 1):
        lo = max(0.0, y - (Ks - 2) * x)
        hi = y / (Ks - 1)
        knots = [(y - j * x) / (Ks - 1 - j) for j in range(1, Ks - 1)]
        knots.append(x)
        return _gauss_knots(lambda z4, _: fine.values(x, y - z4, z4), lo, hi,
                            knots, deg=Ks - 3, exact=False)
    lo = max((Ks - 2) * y / (Ks - 1), y - x)
    hi = min((Ks - 2) * x, y)
    knots = [((Ks - 2 - j) * y + j * x) / (Ks - 1 - j) for j in range(1, Ks - 1)]
    knots.append(y - x)
    return _gauss_knots(lambda z3, _: fine.values(x, z3, y - z3), lo, hi,
                        knots, deg=Ks - 3, exact=False)


def _t5c(fine, Ks, x, y, order):
    # Fine coordinates (head sum z1, rank Ks-1 = x, rank Ks z4), z1 + z4 = y.
    if order in (0, 1):
        hi = min(x, y - (Ks - 2) * x)
        return _gauss_knots(lambda z4, _: fine.values(y - z4, x, z4), 0.0, hi,
                            deg=Ks - 3, exact=False)
    lo = max((Ks - 2) * x, y - x)
    return _gauss_knots(lambda z1, _: fine.values(z1, x, y - z1), lo, y,
                        deg=Ks - 3, exact=False)


def _t5b(fine, Ks, m, x, y, order):
    # Fine coordinates (head sum z1, rank m = x, mid sum z3, rank Ks z4),
    # z1 + z3 + z4 = y; the inner integral holds z4 fixed.
    nm = Ks - m  # selected ranks below m, inclusive of rank Ks
    hi4 = min(x, (y - (m - 1) * x) / nm)
    outer_knots = [(y - (m + j - 1) * x) / (nm - j) for j in range(1, nm)]
    outer_knots.append(y - (Ks - 2) * x)
    exact = fine.piecewise_polynomial
    j = np.arange(1, nm)
    # Each inner integral takes the outer nodes as rows, z4 = z4s[row].
    if order in (0, 1):
        def inner(z4s, _):
            # Below y - z4 - (nm-1)*x the mid-sum exceeds its support and
            # the step sum is cancellation noise around zero; stop the
            # integral at the true edge.
            lo1 = np.maximum((m - 1) * x, y - z4s - (nm - 1) * x)
            hi1 = y - nm * z4s
            knots = y - np.multiply.outer(z4s, nm - j) - j * x
            return _gauss_knots(
                lambda z1, r: fine.values(z1, x, y - z1 - z4s[r], z4s[r]),
                lo1, hi1, knots, deg=Ks - 4, exact=exact)
    else:
        def inner(z4s, _):
            lo3 = (nm - 1) * z4s
            hi3 = np.minimum((nm - 1) * x, y - z4s - (m - 1) * x)
            knots = np.multiply.outer(z4s, nm - 1 - j) + j * x
            return _gauss_knots(
                lambda z3, r: fine.values(y - z3 - z4s[r], x, z3, z4s[r]),
                lo3, hi3, knots, deg=Ks - 4, exact=exact)
    return _gauss_knots(inner, 0.0, hi4, outer_knots, deg=Ks - 3, exact=False)


# -- T6: (sum of ranks 1..m, sum of ranks m+1..Ks), best Ks --


def t6_fine(fines, K, Ks, m, param):
    """The fine density that ``t6`` reduces; ``fines`` as for ``t5_fine``."""
    # A one-variable head takes the rank-1 T5 pair's, a one-variable tail
    # the rank-Ks one (case d); any other m the case-b density of rank m.
    return t5_fine(fines, K, Ks, Ks if 1 < m == Ks - 1 else m, param)


def t6_support(Ks, m, x, y):
    return x >= 0 and y >= 0 and (Ks - m) * x >= m * y


def t6(fine, Ks, m, x, y):
    """Density of (sum x of ranks 1..m, sum y of ranks m+1..Ks).

    ``fine`` comes from ``t6_fine``.  A one-variable head is the T5 pair of
    rank 1, and a one-variable tail the fine density of rank Ks; otherwise
    the rank-m and rank-Ks values are integrated out.
    """
    if not t6_support(Ks, m, x, y):
        return 0.0
    if m == 1:
        return t5(fine, Ks, 1, x, y)
    if m == Ks - 1:
        return fine(y, x)
    nt = Ks - m  # tail size
    lo4 = max(0.0, y - (nt - 1) * x / m)
    hi4 = y / nt
    hi2 = x / m
    outer_knots = [(y - j * x / m) / (nt - j) for j in range(1, nt)]
    exact = fine.piecewise_polynomial
    j = np.arange(1, nt)

    def inner(z4s, _):
        # One row per outer node.  Below (y - z4) / (nt - 1) the mid-sum
        # exceeds its support and the step sum is cancellation noise
        # around zero.
        lo2 = (y - z4s) / (nt - 1)
        knots = (y - np.multiply.outer(z4s, nt - j)) / j
        return _gauss_knots(
            lambda z2, r: fine.values(x - z2, z2, y - z4s[r], z4s[r]),
            lo2, hi2, knots, deg=Ks - 4, exact=exact)

    return _gauss_knots(inner, lo4, hi4, outer_knots, deg=Ks - 3,
                        exact=False)
