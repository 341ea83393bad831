"""Fixed quadrature rules and ``_doubled``, the one n/2n loop that sizes them.

``_doubled`` runs a batch of integrals: per integral, n doubles until the
n- and 2n-node rules agree, and the integrals that have converged stop.
It sizes the rules of the reductions of fine densities, of ``verify``'s
normalization integrals, of the MS-GSC stages of ``apps``, of the
kernel-power inverses of ``generic_joint`` and of the brute-force oracle
of ``kernels``.  Integrals that Gauss-Legendre rules leave open at their
cap can go on with tanh-sinh rules, whose nodes crowd both segment ends:
a density singular at 0, like x^(a-1), puts such an end on a rule.
``_gauss_knots`` integrates rows that each have their own limits and
knots; ``_gauss_2d`` integrates two-level regions without knots.
"""

import functools
import warnings

import numpy as np

from ordstat.errors import ConvergenceError

_EPSABS = 1e-9
_EPSREL = 1e-8
_SMOOTH_EXTRA = 3  # nodes beyond the exact count, for the smooth factor
_MAX_NODES = 128   # per knot segment, on Gauss-Legendre rules
# Integrals still open at their Gauss-Legendre cap go on with tanh-sinh
# rules from the first of these node counts per segment, up to the second.
_TANH_SINH_NODES = (16, 256)
# Nodes per call of an integrand.  An exact step sum makes a few
# (nodes x terms) temporaries, so the peak memory of a batch of inner
# rules grows with this.
_BLOCK = 2 ** 10
# Nodes per call of a ``_gauss_2d`` integrand, whole rows at a time (a row
# of the n-node rule has n * n nodes).  Its integrands have no step sum.
_BLOCK_2D = 2 ** 13
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


def _gauss_knots(f, lo, hi, knots=(), *, deg, exact=True):
    """Integrals of ``f`` over ``[lo, hi]``, Gauss-Legendre on knot segments.

    ``lo`` and ``hi`` are arrays (or scalars) that broadcast, one integral
    per element (a row), with ``knots`` an array of ``(rows, k)`` points,
    or of k points for scalar limits; the result has their shape.  No rows
    give an empty array, and ``f`` is not called.  Each row's knots are
    clipped into its interval and sorted; empty segments (and rows with
    ``hi <= lo``) get no nodes.  ``f(x, row)`` maps a flat array of nodes,
    and the index array of the row of each, to an array of values.  Each
    rule calls ``f`` on the nodes of all open rows together, in blocks of
    whole segments and at most ``_BLOCK`` nodes.

    Between knots the integrand is a polynomial of degree ``deg``
    (``exact``), or such a polynomial times a smooth factor.  The
    ``deg // 2 + 1``-node rule integrates the polynomial exactly, so exact
    rows take that rule alone.  Otherwise the rule starts ``_SMOOTH_EXTRA``
    nodes higher and doubles per row as ``_doubled`` says, at
    ``_EPSABS``/``_EPSREL``; rows still open at ``_MAX_NODES`` go on with
    tanh-sinh rules, which converge at an integrable end singularity.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    shape, rows = lo.shape, lo.size
    if not rows:
        return np.zeros(shape)
    knots = np.asarray(knots, dtype=float).reshape(rows, -1)
    edges = np.empty((rows, knots.shape[1] + 2))
    edges[:, 0], edges[:, -1] = lo.ravel(), np.maximum(hi, lo).ravel()
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
            vals = f((b + s * t).ravel(), np.repeat(r, t.size))
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
                    block(b[i:i + k], s[i:i + k], r[i:i + k], t, w)
                    for i in range(0, s.size, k)])
            out = np.zeros((len(todo), cols))
            out[at, c] = est
            return out
        return rule

    gauss = on(_legendre, mid, half)
    n = deg // 2 + 1
    if exact:
        total = gauss(n, range(rows)).sum(axis=1)
    else:
        # Tanh-sinh nodes at their distance from the left end, ``dl``.
        tanh_sinh = on(lambda n: _tanh_sinh01(n)[::2], left, width)
        total = _doubled(gauss, n + _SMOOTH_EXTRA, lo, hi, _EPSABS, _EPSREL,
                         then=tanh_sinh)
    return total.reshape(shape)[()]


def _gauss_2d(f, lo, hi, inner, *, deg, epsabs, epsrel):
    """Integrals of ``f(s, v)`` over ``lo <= s <= hi``, ``v`` in ``inner(s)``.

    ``hi`` is a float, which gives one integral and a float, or an array of
    upper limits, which gives one integral per element (0 where ``hi <=
    lo``), as the rows of one rule, and an array of its shape.  ``inner``
    maps an array of outer nodes to the arrays ``(a, b)`` of their inner
    limits.  The integrand is smooth in ``s`` and, in ``v``, a polynomial of
    degree ``deg`` times a smooth factor, with no knot on either level.  The
    n-node rule puts n nodes on ``s`` in each row and maps the same n onto
    each ``[a, b]``; ``f`` gets the ``(rows, n, n)`` node arrays of the open
    rows, in blocks of whole rows and at most ``_BLOCK_2D`` nodes where a
    row has fewer.  n starts as in ``_gauss_knots`` and doubles per row,
    on both levels, as ``_doubled`` says.  A value that is not finite
    raises :class:`ConvergenceError`.
    """
    top = np.asarray(hi, dtype=float)
    out = np.zeros(top.shape)
    live = top > lo
    his = top[live]
    mid, half = 0.5 * (his + lo), 0.5 * (his - lo)

    def block(x, w, rows):
        s = mid[rows, None] + half[rows, None] * x
        a, b = inner(s)
        vmid, vhalf = 0.5 * (b + a), 0.5 * (b - a)
        vals = f(s[..., None], vmid[..., None] + vhalf[..., None] * x)
        # A dot product per row, as (1, n) @ (n, 1): unlike one matrix
        # product over the rows, it rounds as the rule of that row alone.
        sums = (vhalf * (vals @ w))[:, None, :]
        return half[rows] * (sums @ w[:, None])[:, 0, 0]

    def rule(n, todo):
        x, w = _legendre(n)
        k = max(1, _BLOCK_2D // (n * n))
        est = np.concatenate([block(x, w, todo[i:i + k])
                              for i in range(0, todo.size, k)])
        bad = np.flatnonzero(~np.isfinite(est))
        if bad.size:
            raise ConvergenceError(
                f"{n}x{n}-node rule on [{lo:g}, {his[todo[bad[0]]]:g}] gave "
                f"{est[bad[0]]}")
        return est[:, None]

    if his.size:
        out[live] = _doubled(rule, deg // 2 + 1 + _SMOOTH_EXTRA,
                             np.full(his.size, lo), his, epsabs, epsrel)
    return out if out.ndim else float(out)


def _doubled(rule, n, lo, hi, epsabs, epsrel, cap=None, then=None):
    """The n/2n loop of the fixed rules, over a batch of integrals.

    Integral i runs over ``[lo[i], hi[i]]``.  ``rule(n, todo)`` returns the
    n-node estimates, real or complex, of the integrals indexed by the
    array ``todo``: a row per integral and a column per segment.  n doubles
    until an integral's n- and 2n-node sums agree to ``epsabs``/``epsrel``;
    that integral then stops, and the rule runs on the others only.  The
    array of 2n-node totals is returned, with an ``IntegrationWarning`` if
    that takes ``cap`` (default ``_MAX_NODES``) nodes per segment and
    level or more.  ``then``, a rule of the same kind, takes over the
    integrals still open at ``cap``, on ``_TANH_SINH_NODES``.  Those that
    it leaves open too warn, and keep the estimate of whichever rule ended
    with the smaller n/2n difference.
    """
    cap = _MAX_NODES if cap is None else cap
    out, todo, err, n = _doubling(rule, len(lo), epsabs, epsrel, n, cap)
    if todo is None:
        return out
    if then is not None:
        out2, left, err2, n = _doubling(lambda n, sub: then(n, todo[sub]),
                                        todo.size, epsabs, epsrel,
                                        *_TANH_SINH_NODES)
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


def _doubling(rule, size, epsabs, epsrel, n, cap):
    """``_doubled``'s loop for one rule.  Returns the totals, of the rule's
    dtype, then the indices of the integrals still open at ``cap``, their
    last n/2n differences (both None if none is open) and the last n."""
    todo = np.arange(size)
    est = rule(n, todo)
    out = np.empty(size, dtype=est.dtype)
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
