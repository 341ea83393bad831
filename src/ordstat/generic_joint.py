"""Joint densities of ordered partial sums for arbitrary distributions.

This is the generic path of the paper's framework.  Its pairs are row
forms of n variables above a floor lo.  T1 is the inverse Laplace
transform of the kernel power mu(lo, inf, -s)^n (``_inv_pow``).  T2
(``_t2_above``) is the pdf at the rank-m value times the inverse of a
product of kernel powers that share one transform variable, a c-power
from lo and an e-power; a product with a power 0 is the other power
alone.  T3 (``_t3_above``) integrates the rank-m value out of the pdf
times two kernel-power inverses, as the rows of one rule.  At the floor
0, T2 and T3 are ``t2_jpdf`` and ``t3_jpdf``.  Above the rank-Ks value
z4 the best Ks-1 are i.i.d. with the law truncated at z4 (Renyi, 1953),
so each fine density (``Fine*``, the shapes that ``reductions`` lists)
is one floor factor at z4 (``_floor``: its pdf times the CDF power of
the ranks below it) times T1 (``FineLastHead``), T2
(``FineRankRestLast``) or T3 (``FineHeadTailLast``) of Ks-1 variables
above z4.  ``reductions`` integrates them to the theorem families T4-T6,
with the same limits, knots and rules as the exponential closed forms of
``exact_exp``.  These densities are not polynomial between knots, so
every rule runs the Gauss-Kronrod pair of ``rules._gauss_knots``.  T1 of
all K variables, the total sum, inverts an MGF power on a Bromwich line
instead, and ``resolve`` dispatches a theorem shape to either path.
Multidimensional numerical inversion is never attempted: the error budget
stays one-dimensional by construction.

Every kernel is ``mu(a, b, lam)``, the integral of ``p(x) exp(lam*x)`` over
[a, b], with its limits pinned: ``c(g, lam) = mu(0, g, lam)`` and
``e(g, lam) = mu(g, inf, lam)``.  So one function, ``_inv_pow``, gives the
inverse Laplace transform of every kernel power ``mu(lo, hi, -s)^n``, and two
structural facts keep it tractable for any distribution on [0, inf):

* The inverse is the n-fold self-convolution of the pdf restricted to
  [lo, hi], so it lives on [n*lo, n*hi].  Elements outside get 0 and no
  nodes.
* A power-1 kernel is itself a finite Laplace transform of a pdf
  restriction, so its inverse is ``pdf(t)`` on its support and needs no
  numeric inversion.  Higher powers reduce to it through the convolution
  theorem: ``mu^n`` splits as ``mu^h * mu^(n-h)``, so its inverse is a
  finite convolution of theirs, recursively.  The recursion ends at the
  pair, the product of two power-1 kernels, where the distribution has
  it in closed form (``Distribution._pair``: the exponential and the
  half-normal), and at the pdf restriction for a custom law, whose pairs
  are convolutions by rule like every level above them.  The inverse of
  power n is only ``C^(n-2)`` on the lattice ``j*lo + (n-j)*hi``, where
  every convolution cuts its rule; with the declared ``breaks`` of a
  density that jumps or has a kink, every sum of n points of {lo,
  breaks, hi} (``_lattice``).  This matters beyond speed:
  Bromwich-line summation converges worst at such edges, in
  exactly the absolute terms that a relative error target cannot afford,
  and the reduction quadratures both place nodes arbitrarily close to
  those edges and probe regions where the density is orders of magnitude
  below its scale.

The Bromwich-line inverter therefore handles only the total-sum density,
whose transform is an entire MGF power with no support edge in sight.
Every kernel-power inverse is an array function instead: thresholds are
integration variables of T3-T6 and differ per node, so ``_inv_pow`` takes
limits and t as arrays that broadcast.  One tensor rule
evaluates every element: each convolution level cuts its overlap at both
factors' lattices and puts the same number of nodes on every segment, and
the factors are evaluated on the resulting node arrays.  Where the two
factors are the same power (the halves of an even power), the integrand
f(u) f(t-u) is symmetric about t/2, and so are its overlap and cuts: the
nodes pair off about t/2 with equal values and weights, and ``_conv``
evaluates the nodes below t/2 only, each pair's value counted twice.
That halves the evaluations of each such level: c(g, -s)^8 of a custom
law evaluates its pdf 8 times less often, three such levels deep, and
that of a built-in law its closed pair 4 times less often, two such
levels above the pair.  The n- and 2n-node rules are compared per
element (``rules._doubled``), with relative error control end to end,
and elements that have converged stop.  Gauss-Legendre rules serve a
density that is smooth on [0, inf) at once.  One that is singular at 0,
like x^(a-1) (a Gamma or Weibull shape below 1), or only not smooth
there, leaves some elements open at the Gauss cap; those go on with
tanh-sinh rules, which crowd both ends of every segment and converge
there at their usual pace.

Every family has one array form, which takes coordinate arrays that
broadcast (or scalars, one point): the fine densities' ``values``; the
reduced densities (``t4_pdf`` with Ks >= 2, ``t5_jpdf`` and
``t6_jpdf``), as the rows of one ``reductions`` rule, and ``t3_jpdf``
with m >= 2 as the rows of its T3 form's rule; ``t2_jpdf`` (and
``t3_jpdf`` with m = 1, the rank-1 T2 joint), as the rows of one
kernel-power inverse; ``t4_pdf`` with Ks = 1, a formula; and
``t1_pdf``, as the rows of one Bromwich-line inversion, which runs them
in lockstep (``ilt.invert_rows``).  Every family gives nan at a point
with a nan coordinate and 0 at one with an infinite coordinate, or one
beyond 2^500 (``reductions._points``), as on the exact path.
"""

import functools
import itertools
import math

import numpy as np

from ordstat import exact_exp, reductions, rules
from ordstat.distributions import Exponential
from ordstat.errors import ConvergenceError, DomainError
from ordstat.ilt import TransformFn, invert_rows
from ordstat.ilt import invert_numeric  # noqa: F401

__all__ = [
    "resolve",
    "t1_pdf",
    "t2_jpdf",
    "t3_jpdf",
    "t4_pdf",
    "t5_jpdf",
    "t6_jpdf",
]

# Placeholders: perfbench's tracer swaps a counting proxy into
# ``integrate`` and wraps ``invert_numeric``, and no ordstat code here
# reads either; T1 inverts through ``invert_rows``.
integrate = None


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
    """Inverse of the transform ``f`` at a 1-d array of t, one row of
    ``ilt.invert_rows`` each; raises :class:`ConvergenceError` naming the
    first t whose result is neither converged nor accepted."""
    tf = TransformFn(f, abscissa=_tf_abscissa(dist), scale_hint=scale)
    res = invert_rows(tf, t, target_digits=digits)
    est = res.error_estimate
    bad = ~res.converged & (est > _ILT_ACCEPT_ABS) & (
        est > _ILT_ACCEPT_REL * np.abs(res.value))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"inverse transform did not converge at t={float(t[i])!r} "
            f"(method {res.method[i]}, error estimate {est[i]:.2e})")
    return res.value


# Per-element targets of the n/2n comparison of every kernel-power
# inverse.  Each level of the recursion takes the same node count per
# segment, starting at _FIRST_NODES on Gauss-Legendre rules; an element
# still open at _MAX_NODES goes on with tanh-sinh rules, as ``rules``
# says.  Each level evaluates its node array in blocks of about _BLOCK
# entries; with a few levels alive at once, 2**13 (as in ``kernels``)
# keeps one rule's arrays near 2**15 entries.
_EPSABS = 1e-13
_EPSREL = 1e-11
_FIRST_NODES = 8
_MAX_NODES = 64
_BLOCK = 2 ** 13


def _sums(points, n, skip=()):
    """Every sum of n of ``points`` but those of the index tuples in
    ``skip``.  A sum adds its distinct points in order, each times its
    count, so ``j*lo + (n-j)*hi`` comes out to the bit, and an infinite
    point enters only the sums that take it."""
    return [sum(pick.count(i) * points[i] for i in dict.fromkeys(pick))
            for pick in itertools.combinations_with_replacement(
                range(len(points)), n) if pick not in skip]


def _lattice(lo, hi, n, breaks):
    """Interior kink lattice of the inverse of mu(lo, hi, -s)^n: every sum
    of n points of {lo, the breaks clipped to [lo, hi], hi} (``_sums``),
    but n*lo and n*hi."""
    points = (lo, *(np.clip(b, lo, hi) for b in breaks), hi)
    return tuple(_sums(points, n, {(0,) * n, (len(points) - 1,) * n}))


def _overlap(a, b, t):
    """Limits of the convolution at t of the inverses of powers a and b."""
    (la, ha, na), (lb, hb, nb) = a, b
    return np.maximum(na * la, t - nb * hb), np.minimum(na * ha, t - nb * lb)


def _conv(dist, a, b, t, rule):
    """``rule`` (a ``(dl, dr, w)`` table) for the convolution at t of the
    inverses of two kernel powers ``a`` and ``b``, each ``(lo, hi, n)`` for
    mu(lo, hi, -s)^n with 1-d arrays of limits, as is ``t``.

    The overlap of the two supports is cut at the lattice of each factor
    (``_lattice``, with the density's breaks): a power inverse is not
    smooth there.  Every lattice point is clipped into the overlap, so
    each element has the same number of segments, an odd one; an infinite
    point (an upper limit of inf) lands on an end.  Empty segments get no
    nodes.  Both factors are evaluated by the same rule on the node array,
    factor b at its distance from the segment's far end.

    Where ``b is a`` (the halves of an even power, as ``_halves`` gives
    them), the integrand f(u) f(t-u) is symmetric about t/2, and so are the
    overlap (lo + hi = t) and its cuts (the lattice and t minus it).
    Sorted, the edges pair off about t/2: segment j mirrors segment
    segs-1-j, and the middle segment holds t/2.  The tables are symmetric,
    so each node has a mirror node with the same value and weight.  The
    segments below the middle take their whole table and the middle one
    the lower half of its own, with doubled weights, and one ``_pow`` call
    evaluates both factors there; the segments above the middle get no
    nodes.  The rule is the same, and values move by rounding only.
    Returns the estimates, one row per element and one column per segment
    (0 above the middle where ``b is a``).

    Each block of about ``_BLOCK`` nodes evaluates the factors at once, by
    ``_pow``: a factor of power 2 is a closed pair (``_pair``) where the
    distribution has one, so its temporaries are the block's size.
    """
    (la, ha, na), (lb, hb, nb) = a, b
    lo, hi = _overlap(a, b, t)
    live = np.flatnonzero(hi > lo)
    lo, hi, tl = lo[live], hi[live], t[live]
    cuts = _lattice(la[live], ha[live], na, dist.breaks)
    cuts_b = cuts if b is a else _lattice(lb[live], hb[live], nb, dist.breaks)
    edges = np.stack([lo, *cuts, *(tl - q for q in cuts_b), hi], axis=1)
    segs = edges.shape[1] - 1
    if segs > 1:
        edges = np.sort(np.clip(edges, lo[:, None], hi[:, None]), axis=1)
    # Groups of segments that share a table: (first, stop, dl, dr, w).
    dl, dr, w = rule
    if b is a:
        mid, half = segs // 2, (w.size + 1) // 2
        wh = 2 * w[:half]
        # The centre node of an odd table is its own mirror.
        wh[w.size // 2:] = w[w.size // 2:half]
        groups = ((0, mid, dl, dr, 2 * w),) if mid else ()
        groups += ((mid, mid + 1, dl[:half], dr[:half], wh),)
    else:
        groups = ((0, segs, dl, dr, w),)
    out = np.zeros((t.size, segs))
    step = max(1, _BLOCK // (segs * w.size))
    for i in range(0, live.size, step):
        k, tk, ek = live[i:i + step], tl[i:i + step], edges[i:i + step]
        width = ek[:, 1:] - ek[:, :-1]
        parts, ua, ub = [], [], []
        for first, stop, gl, gr, gw in groups:
            # Element and segment of every non-empty segment of the group;
            # with one segment, that is every element, as a view.
            if segs > 1:
                e, s = np.nonzero(width[:, first:stop] > 0)
                s += first
            else:
                e, s = slice(None), 0
            ws = width[e, s][:, None]
            ua.append((ek[e, s][:, None] + ws * gl).ravel())
            ub.append(((tk[e] - ek[e, s + 1])[:, None] + ws * gr).ravel())
            parts.append((k[e], s, ws[:, 0], gw))
        # The element of every node.
        el = np.concatenate([np.repeat(e, gw.size) for e, _, _, gw in parts])
        if b is a:
            el = np.concatenate([el, el])
            f = _pow(dist, la[el], ha[el], na, np.concatenate(ua + ub), rule)
            vals = f[:el.size // 2] * f[el.size // 2:]
        else:
            vals = (_pow(dist, la[el], ha[el], na, np.concatenate(ua), rule)
                    * _pow(dist, lb[el], hb[el], nb, np.concatenate(ub), rule))
        at = 0
        for e, s, ws, gw in parts:
            n = e.size * gw.size
            out[e, s] = rules._row_sums(
                vals[at:at + n].reshape(e.size, gw.size), gw) * ws
            at += n
    return out


def _pair(dist, a, b, t):
    """The inverse at t of the product of two power-1 kernels ``a`` and
    ``b``, each ``(lo, hi, 1)``: the distribution's closed pair
    (``Distribution._pair``) on their overlap, where both factors are the
    plain pdf.  No rule runs."""
    return dist._pair(*_overlap(a, b, t), t)


def _restricted_pdf(dist, lo, hi, t):
    """The inverse of mu(lo, hi, -s): the pdf restricted to [lo, hi]."""
    return np.where((t >= lo) & (t <= hi), dist.pdf(t), 0.0)


def _halves(lo, hi, n):
    """The factors of mu(lo, hi, -s)^n, powers n//2 and n - n//2: one
    object twice where n is even, which ``_conv`` evaluates once."""
    a = (lo, hi, n // 2)
    return a, (a if n % 2 == 0 else (lo, hi, n - n // 2))


def _pow(dist, lo, hi, n, t, rule):
    """``rule`` for the inverse of mu(lo, hi, -s)^n at t: a convolution of
    its halves (``_halves``), down to the closed pair at n = 2 where the
    distribution has one (``_pair``), and to the restricted pdf."""
    if n == 1:
        return _restricted_pdf(dist, lo, hi, t)
    if n == 2 and dist._pair is not None:
        a = (lo, hi, 1)
        return _pair(dist, a, a, t)
    return _conv(dist, *_halves(lo, hi, n), t, rule).sum(axis=1)


def _inv_prod(dist, a, b, t):
    """Inverse at t of the product of two kernel powers, ``a`` and ``b``
    each ``(lo, hi, n)`` for mu(lo, hi, -s)^n.  Limits and t are arrays
    (or scalars) that broadcast; so is the result.

    Upper limits are clamped to the support, so that the edge of a bounded
    density is a lattice point and not a jump inside a rule, as its
    declared breaks are (``_lattice``); a jump or kink that is not
    declared slows the rules that meet it, and warns.  The n- and
    2n-node rules of ``_conv`` are compared per element; an element that
    has converged stops.  Where both powers are 1 and the distribution has
    a closed pair (``_pair``), that is the inverse, with no rule and no
    n/2n doubling.  Gauss-Legendre rules come first; an element that
    they leave open at ``_MAX_NODES`` (a density that is singular, or not
    smooth, at 0) goes on with tanh-sinh rules.  A value that is not
    finite raises :class:`ConvergenceError`.  Where ``b is a`` (an even
    power's halves, from ``_inv_pow``), the top level evaluates each
    mirrored pair of nodes once, as does every level below whose power is
    even (``_conv``).  A factor of power 0 is 1: the inverse is the other
    factor's, ``_inv_pow``.
    """
    if a[2] == 0:
        return _inv_pow(dist, *b, t)
    if b[2] == 0:
        return _inv_pow(dist, *a, t)
    (la, ha, na), (lb, hb, nb) = a, b
    up = dist.support_upper
    args = (la, np.minimum(ha, up), lb, np.minimum(hb, up), t)
    zero = np.zeros(np.broadcast_shapes(*map(np.shape, args)))
    la, ha, lb, hb, t = ((v + zero).ravel() for v in args)
    if na == nb == 1 and dist._pair is not None:
        return _pair(dist, (la, ha, 1), (lb, hb, 1), t).reshape(zero.shape)

    def on(table):
        def rule(nodes, todo):
            fa = (la[todo], ha[todo], na)
            fb = fa if b is a else (lb[todo], hb[todo], nb)
            est = _conv(dist, fa, fb, t[todo], table(nodes))
            if not np.isfinite(est).all():
                raise ConvergenceError(
                    f"{nodes}-node rule for a kernel-power inverse gave a "
                    f"value that is not finite")
            return est
        return rule

    lo, hi = _overlap((la, ha, na), (lb, hb, nb), t)
    return rules._doubled(rules._paired(on(rules._gauss01)), _FIRST_NODES,
                          lo, hi, _EPSABS, _EPSREL, _MAX_NODES,
                          then=rules._paired(on(rules._tanh_sinh01))
                          ).reshape(zero.shape)


def _inv_pow(dist, lo, hi, n, t):
    """Inverse of mu(lo, hi, -s)^n at t; supported on [n*lo, n*hi].

    c(g, -s) is mu(0, g, -s) and e(g, -s) is mu(g, inf, -s).  Arguments
    are arrays (or scalars) that broadcast; so is the result.  Power n is
    the convolution of powers n//2 and n - n//2, down to the closed pair
    (``_pair``) or, for a custom law, the pdf restricted to [lo, hi].
    """
    if n == 1:
        return _restricted_pdf(dist, lo, hi, np.asarray(t, dtype=float))
    return _inv_prod(dist, *_halves(lo, hi, n), t)


def t1_pdf(dist, K, z, digits=8):
    """Density of the sum of all ``K`` variables, over an array (or
    scalar) of z: the points are the rows of one Bromwich-line inversion
    (``ilt.invert_rows``), and each is its own inversion to the bit."""
    if K < 1:
        raise DomainError("need K >= 1")

    def f(s):
        # [c(inf, -s)]^K on an array of Bromwich nodes.
        return dist.kernel_c(math.inf, -s) ** K

    def rows(z):
        if K == 1:
            return dist.pdf(z)
        return _ilt(dist, f, z, digits, K * dist.mean)

    return reductions._reduce(lambda z: z >= 0, rows, z)


def _floor(dist, K, Ks, z4):
    """The floor factor of a fine density: the density of the rank-Ks
    value z4 times the CDF power of the K-Ks unselected ranks below it."""
    if Ks == K:
        return dist.pdf(z4)
    return reductions._pow(dist.cdf(z4), K - Ks) * dist.pdf(z4)


# The T2 and T3 forms above a floor take the whole combinatorial factor
# ``pref`` and the floor factor ``last`` (1 at the floor 0) into their
# product, as pref * pdf * last * inverses.


def _t2_above(dist, n, m, lo, pref, last, x, w):
    """T2 above ``lo``: the rank-m value x and the sum w of the other n-1.
    The n-m below x give a c-power from lo, the m-1 above it an e-power."""
    below, above = (lo, x, n - m), (x, math.inf, m - 1)
    return pref * dist.pdf(x) * last * _inv_prod(dist, below, above, w)


def _t3_above(dist, n, m, lo, pref, last, x, y):
    """T3 above ``lo`` for m >= 2: the sum x of ranks 1..m and the sum y
    of the n-m below, over the rank-m value g, as the rows of one rule.

    All arguments broadcast.  The tail, n-m values in [lo, g], bounds g
    below by y/(n-m); the head, g and m-1 values above it, above by x/m.
    The knots are where y crosses a lattice point of the tail's power,
    k*g plus a sum of n-m-k points of {lo, breaks}, at (y - sum)/k (with
    no breaks, (y - j*lo)/(n-m-j)); where x - g crosses one of the
    head's, k*g plus a sum of m-1-k points of {breaks, a finite support
    end}, at (x - sum)/(k+1); and the breaks, where pdf(g) jumps.
    ``last`` enters the integrand, so that the rule's n/2n test judges
    the density it returns.
    """
    x, y, lo, last = np.broadcast_arrays(
        *(np.asarray(c, dtype=float) for c in (x, y, lo, last)))
    shape = x.shape
    x, y, lo, last = (c.ravel() for c in (x, y, lo, last))
    nt, breaks, up = n - m, dist.breaks, dist.support_upper
    ends = (*breaks, up) if math.isfinite(up) else breaks
    knots = [(y - s) / k for k in range(nt, 0, -1)
             for s in _sums((lo, *breaks), nt - k)]
    knots += [(x - s) / (k + 1) for k in range(m - 1)
              for s in _sums(ends, m - 1 - k)]
    knots = np.stack(np.broadcast_arrays(*knots, *breaks), axis=1)

    def f(g, r):
        head = _inv_pow(dist, g, math.inf, m - 1, x[r] - g)
        tail = _inv_pow(dist, lo[r], g, nt, y[r])
        return pref * dist.pdf(g) * last[r] * head * tail

    return rules._gauss_knots(f, y / nt, x / m, knots, deg=n - 3,
                              exact=False).reshape(shape)[()]


def t2_jpdf(dist, K, m, z1, z2):
    """Joint density of (rank-m variable, sum of the other K-1)."""
    if not 1 <= m <= K or K < 2:
        raise DomainError("need K >= 2 and 1 <= m <= K")
    rows = functools.partial(_t2_above, dist, K, m, 0.0,
                             reductions._pref(K, K - m, m - 1), 1.0)
    return reductions._reduce(functools.partial(reductions.t2_support, K, m),
                              rows, z1, z2)


def t3_jpdf(dist, K, m, z1, z2):
    """Joint density of (sum of the m largest, sum of the K-m smallest)."""
    if not 1 <= m <= K - 1:
        raise DomainError("need 1 <= m <= K-1")
    # With m = 1 the head is the rank-1 value: the rank-1 T2 joint.
    rows = functools.partial(_t2_above if m == 1 else _t3_above, dist, K, m,
                             0.0, reductions._pref(K, K - m, m - 1), 1.0)
    return reductions._reduce(functools.partial(reductions.t3_support, K, m),
                              rows, z1, z2)


class FineLastHead:
    """Joint of (rank-Ks variable v, sum of ranks 1..Ks-1 w): T1 above v.
    Zero where w < (Ks-1)*v, off the e-power's support, and where v < 0,
    with the density of v."""

    def __init__(self, K, Ks, dist):
        self.K, self.Ks, self.dist = K, Ks, dist
        self.pref = reductions._pref(K, K - Ks, Ks - 1)

    def values(self, v, w):
        d, Ks = self.dist, self.Ks
        return (self.pref * _floor(d, self.K, Ks, v)
                * _inv_pow(d, v, math.inf, Ks - 1, w))


class FineRankRestLast:
    """Joint of (rank-m variable, sum of the other ranks 1..Ks-1, rank-Ks
    variable z4), 1 <= m <= Ks-1: T2 above z4.  At m = 1 (T5a) the
    e-power, and at m = Ks-1 (T5c) the c-power, is of power 0."""

    def __init__(self, K, Ks, m, dist):
        self.K, self.Ks, self.m, self.dist = K, Ks, m, dist
        self.pref = reductions._pref(K, K - Ks, m - 1, Ks - m - 1)

    def values(self, x, w, z4):
        d, Ks = self.dist, self.Ks
        return _t2_above(d, Ks - 1, self.m, z4, self.pref,
                         _floor(d, self.K, Ks, z4), x, w)


class FineHeadTailLast:
    """Joint of (sum x of ranks 1..m, sum y of ranks m+1..Ks, rank-Ks
    variable z4), 2 <= m <= Ks-2: T3 above z4 at the tail sum y - z4."""

    def __init__(self, K, Ks, m, dist):
        self.K, self.Ks, self.m, self.dist = K, Ks, m, dist
        self.pref = reductions._pref(K, K - Ks, m - 1, Ks - m - 1)

    def values(self, x, y, z4):
        d, Ks = self.dist, self.Ks
        return _t3_above(d, Ks - 1, self.m, z4, self.pref,
                         _floor(d, self.K, Ks, z4), x, y - z4)


# The fine density of each T5 case, and T6's, for ``reductions.t5_fine``
# and ``t6_fine``: cases a-c are ``FineRankRestLast`` at m = 1, at
# 2 <= m <= Ks-2 and at m = Ks-1.
_FINES = {"a": FineRankRestLast, "b": FineRankRestLast,
          "c": FineRankRestLast, "d": FineLastHead, "t6": FineHeadTailLast}


def t4_pdf(dist, K, Ks, x):
    """Density of the sum of the ``Ks`` largest of ``K``."""
    if not 1 <= Ks <= K:
        raise DomainError("need 1 <= Ks <= K")
    if Ks == 1:
        return reductions._reduce(
            lambda x: x >= 0,
            lambda x: K * dist.pdf(x) * reductions._pow(dist.cdf(x), K - 1),
            x)
    return reductions.t4(FineLastHead(K, Ks, dist), Ks, x)


def t5_jpdf(dist, K, Ks, m, x, y):
    """Joint density of (rank-m variable, sum of the other best Ks-1)."""
    if not (2 <= Ks <= K and 1 <= m <= Ks):
        raise DomainError("need Ks >= 2 and 1 <= m <= Ks <= K")
    fine = reductions.t5_fine(_FINES, K, Ks, m, dist)
    return reductions.t5(fine, Ks, m, x, y)


def t6_jpdf(dist, K, Ks, m, x, y):
    """Joint density of (sum of ranks 1..m, sum of ranks m+1..Ks)."""
    if not (1 <= m < Ks <= K):
        raise DomainError("need 1 <= m < Ks <= K")
    fine = reductions.t6_fine(_FINES, K, Ks, m, dist)
    return reductions.t6(fine, Ks, m, x, y)


def resolve(shape, dist, method="auto", digits=8):
    """Density of a theorem shape for ``dist``, and its dimension.

    ``shape`` is a ``partition.TheoremMatch``.  ``match_theorem`` sends
    T4-T6 at Ks = K to T1-T3; a match built directly runs the reduction,
    which is how ``verify`` checks it.  ``method`` ``"exact"`` takes
    the closed forms of ``exact_exp`` (exponential only), ``"generic"`` this
    module's evaluators, and ``"auto"`` the exact path where it applies.
    ``digits`` is the inversion target of generic T1, the only family that
    inverts numerically.  The density takes its coordinates in the caller's
    order: a swapped shape is evaluated with its arguments exchanged.

    The coordinates are scalars, which give a float, or arrays that
    broadcast, which give an array of their common shape.  Either is one
    call of the family's array form.  Each family's exact maker and
    generic density are looked up by name when ``resolve`` runs.
    """
    fam, K, Ks, m = shape.id[:2], shape.K, shape.Ks, shape.m
    entry = {"T1": ("pdf_sum_all", "t1_pdf", (K,)),
             "T2": ("jpdf_one_vs_rest_allK", "t2_jpdf", (K, m)),
             "T3": ("jpdf_headsum_vs_tailsum_allK", "t3_jpdf", (K, m)),
             "T4": ("pdf_gsc_sum", "t4_pdf", (K, Ks)),
             "T5": ("jpdf_one_vs_rest_bestKs", "t5_jpdf", (K, Ks, m)),
             "T6": ("jpdf_headsum_vs_tailsum_bestKs", "t6_jpdf",
                    (K, Ks, m))}.get(fam)
    if entry is None:
        raise DomainError(f"unknown evaluator id {shape.id!r}")
    maker, generic, args = entry
    if method == "auto":
        method = "exact" if isinstance(dist, Exponential) else "generic"
    if method == "exact":
        if not isinstance(dist, Exponential):
            raise DomainError("the exact path covers the exponential "
                              "distribution only; use --method generic")
        fn = getattr(exact_exp, maker)(*args, dist.gamma_bar)
    elif method == "generic":
        pdf = globals()[generic]
        if fam == "T1":
            pdf = functools.partial(pdf, digits=digits)

        def fn(*z):
            return pdf(dist, *args, *z)
    else:
        raise DomainError(f"unknown method {method!r}")
    dim = 1 if fam in ("T1", "T4") else 2

    def density(*z):
        if len(z) != dim:
            raise DomainError(f"{shape.id} expects {dim} coordinate(s)")
        return fn(*z[::-1]) if shape.swap else fn(*z)

    return density, dim
