"""Joint densities of ordered partial sums for arbitrary distributions.

This is the generic path of the paper's framework.  The fine joint
densities (``Fine*``, the shapes that ``reductions`` lists) are products
of the pdf, a CDF power and the inverse Laplace transforms of kernel
powers, or of their products where groups share one transform variable,
as in T2 and in ``FineRankRestLast``, T2's pair of the best Ks-1 above the
rank-Ks value.  ``FineHeadTailLast``, T3's pair of the best Ks-1 above
that value, has no such product: it integrates the rank-m value out of
the four-group ``FineHeadMidLast``, one rule per element.  ``reductions``
integrates the fine densities to the theorem families T3-T6, with the
same limits, knots and rules as the exponential closed forms of
``exact_exp``.  These fine densities are not polynomial between knots,
so every rule runs the Gauss-Kronrod pair of ``rules._gauss_knots``.
T1 (the total sum) inverts an MGF power on a Bromwich line, T2
convolves kernel-power inverses, and ``resolve`` dispatches a theorem
shape to either path.
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
  finite convolution of theirs, recursively, with the pdf restriction at the
  base.  The inverse of power n is only ``C^(n-2)`` on the lattice
  ``j*lo + (n-j)*hi``, where every convolution cuts its rule; with the
  declared ``breaks`` of a density that jumps or has a kink, every sum of
  n points of {lo, breaks, hi} (``_lattice``).  This matters beyond
  speed: Bromwich-line summation converges worst at such edges, in
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
the factors are evaluated on the resulting node arrays.  The n- and
2n-node rules are compared per element (``rules._doubled``), with
relative error control end to end, and elements that have converged
stop.  Gauss-Legendre rules serve a density that is smooth on [0, inf)
at once.  One that is singular at 0, like x^(a-1) (a Gamma or Weibull
shape below 1), or only not smooth there, leaves some elements open at
the Gauss cap; those go on with tanh-sinh rules, which crowd both ends
of every segment and converge there at their usual pace.

Every family has one array form, which takes coordinate arrays that
broadcast (or scalars, one point): the fine densities' ``values``; the
reduced densities (``t3_jpdf`` with m >= 2, ``t4_pdf`` with Ks >= 2,
``t5_jpdf`` and ``t6_jpdf``), as the rows of one ``reductions`` rule;
``t2_jpdf`` (and ``t3_jpdf`` with m = 1, the rank-1 T2 joint), as the
rows of one kernel-power inverse; ``t4_pdf`` with Ks = 1, a formula; and
``t1_pdf``, as the rows of one Bromwich-line inversion, which runs them
in lockstep (``ilt.invert_rows``).  Every family gives nan at a point
with a nan coordinate and 0 at one with an infinite coordinate, as on the
exact path.
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


def _lattice(lo, hi, n, breaks):
    """Interior kink lattice of the inverse of mu(lo, hi, -s)^n: every sum
    of n points of {lo, the breaks clipped to [lo, hi], hi}, but n*lo and
    n*hi.  A sum adds its distinct points in that order, each times its
    count, so with no breaks the lattice is ``j*lo + (n-j)*hi`` to the
    bit, and an infinite hi enters only the sums that take it."""
    points = (lo, *(np.clip(b, lo, hi) for b in breaks), hi)
    ends = {(0,) * n, (len(points) - 1,) * n}
    return tuple(
        sum(pick.count(i) * points[i] for i in dict.fromkeys(pick))
        for pick in itertools.combinations_with_replacement(
            range(len(points)), n) if pick not in ends)


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
    each element has the same number of segments; an infinite one (an
    upper limit of inf) lands on an end.  Empty segments get no nodes.
    Both factors are evaluated by the same rule on the node array, factor
    b at its distance from the segment's far end.
    Returns the estimates, one row per element and one column per segment.
    """
    (la, ha, na), (lb, hb, nb) = a, b
    lo, hi = _overlap(a, b, t)
    live = np.flatnonzero(hi > lo)
    lo, hi, tl = lo[live], hi[live], t[live]
    edges = np.stack([lo, *_lattice(la[live], ha[live], na, dist.breaks),
                      *(tl - q for q in _lattice(lb[live], hb[live], nb,
                                                 dist.breaks)),
                      hi], axis=1)
    segs = edges.shape[1] - 1
    if segs > 1:
        edges = np.sort(np.clip(edges, lo[:, None], hi[:, None]), axis=1)
    dl, dr, w = rule
    nodes = w.size
    out = np.zeros((t.size, segs))
    step = max(1, _BLOCK // (segs * nodes))
    for i in range(0, live.size, step):
        k, tk, ek = live[i:i + step], tl[i:i + step], edges[i:i + step]
        width = ek[:, 1:] - ek[:, :-1]
        # Element and segment of every non-empty segment; with one
        # segment, that is every element, as a view.
        e, s = np.nonzero(width > 0) if segs > 1 else (slice(None), 0)
        width = width[e, s][:, None]
        ua = ek[e, s][:, None] + width * dl
        ub = (tk[e] - ek[e, s + 1])[:, None] + width * dr
        el = k[e]

        def rep(v):
            return np.repeat(v[el], nodes)

        fa = _pow(dist, rep(la), rep(ha), na, ua.ravel(), rule)
        fb = _pow(dist, rep(lb), rep(hb), nb, ub.ravel(), rule)
        vals = (fa * fb).reshape(ua.shape)
        out[el, s] = rules._row_sums(vals, w) * width[:, 0]
    return out


def _restricted_pdf(dist, lo, hi, t):
    """The inverse of mu(lo, hi, -s): the pdf restricted to [lo, hi]."""
    return np.where((t >= lo) & (t <= hi), dist.pdf(t), 0.0)


def _pow(dist, lo, hi, n, t, rule):
    """``rule`` for the inverse of mu(lo, hi, -s)^n at t."""
    if n == 1:
        return _restricted_pdf(dist, lo, hi, t)
    h = n // 2
    return _conv(dist, (lo, hi, h), (lo, hi, n - h), t, rule).sum(axis=1)


def _inv_prod(dist, a, b, t):
    """Inverse at t of the product of two kernel powers, ``a`` and ``b``
    each ``(lo, hi, n)`` for mu(lo, hi, -s)^n.  Limits and t are arrays
    (or scalars) that broadcast; so is the result.

    Upper limits are clamped to the support, so that the edge of a bounded
    density is a lattice point and not a jump inside a rule, as its
    declared breaks are (``_lattice``); a jump or kink that is not
    declared slows the rules that meet it, and warns.  The n- and
    2n-node rules of ``_conv`` are compared per element; an element that
    has converged stops.  Gauss-Legendre rules come first; an element that
    they leave open at ``_MAX_NODES`` (a density that is singular, or not
    smooth, at 0) goes on with tanh-sinh rules.  A value that is not
    finite raises :class:`ConvergenceError`.
    """
    (la, ha, na), (lb, hb, nb) = a, b
    up = dist.support_upper
    args = (la, np.minimum(ha, up), lb, np.minimum(hb, up), t)
    zero = np.zeros(np.broadcast_shapes(*map(np.shape, args)))
    la, ha, lb, hb, t = ((v + zero).ravel() for v in args)

    def on(table):
        def rule(nodes, todo):
            est = _conv(dist, (la[todo], ha[todo], na),
                        (lb[todo], hb[todo], nb), t[todo], table(nodes))
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
    the convolution of powers n//2 and n - n//2, down to the pdf
    restricted to [lo, hi].
    """
    if n == 1:
        return _restricted_pdf(dist, lo, hi, np.asarray(t, dtype=float))
    h = n // 2
    return _inv_prod(dist, (lo, hi, h), (lo, hi, n - h), t)


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


def t2_jpdf(dist, K, m, z1, z2):
    """Joint density of (rank-m variable, sum of the other K-1)."""
    if not 1 <= m <= K or K < 2:
        raise DomainError("need K >= 2 and 1 <= m <= K")

    pref = reductions._pref(K, K - m, m - 1)

    def rows(z1, z2):
        # The K-m variables below z1 give a c-power, the m-1 above it an
        # e-power.
        below, above = (0.0, z1, K - m), (z1, math.inf, m - 1)
        if m == 1:
            inv = _inv_pow(dist, *below, z2)
        elif m == K:
            inv = _inv_pow(dist, *above, z2)
        else:
            inv = _inv_prod(dist, below, above, z2)
        return pref * dist.pdf(z1) * inv

    return reductions._reduce(functools.partial(reductions.t2_support, K, m),
                              rows, z1, z2)


class _Fine:
    """A fine joint density of any distribution: ``values`` takes
    coordinate arrays (or scalars) that broadcast."""

    def __init__(self, K, Ks, dist, *den):
        self.K, self.Ks, self.dist = K, Ks, dist
        self._pref = reductions._pref(K, *den)

    def _last(self, z4):
        """Density of the rank-Ks value z4 times the CDF power of the
        unselected ranks below it."""
        d = self.dist
        if self.Ks == self.K:
            return d.pdf(z4)
        return reductions._pow(d.cdf(z4), self.K - self.Ks) * d.pdf(z4)


class FineHeadRankTail(_Fine):
    """Joint of (sum of ranks 1..m, rank-m variable, sum of ranks m+1..K)."""

    def __init__(self, K, m, dist):
        super().__init__(K, K, dist, K - m, m - 1)
        self.m = m

    def values(self, z1, g, z2):
        # exp(-s*g) is the rank-m variable itself; shift the inversion
        # point instead of carrying the factor into the transform.
        d = self.dist
        head = _inv_pow(d, g, math.inf, self.m - 1, z1 - g)
        tail = _inv_pow(d, 0.0, g, self.K - self.m, z2)
        return self._pref * d.pdf(g) * head * tail


class FineLastHead(_Fine):
    """Joint of (rank-Ks variable v, sum of ranks 1..Ks-1 w)."""

    def __init__(self, K, Ks, dist):
        super().__init__(K, Ks, dist, K - Ks, Ks - 1)

    def values(self, v, w):
        # Zero where w < (Ks-1)*v, off the e-power's support, and where
        # v < 0, with the density of v.
        return self._pref * self._last(v) * _inv_pow(
            self.dist, v, math.inf, self.Ks - 1, w)


class FineOneMidLast(_Fine):
    """Joint of (rank-1 variable, sum of ranks 2..Ks-1, rank-Ks variable)."""

    def __init__(self, K, Ks, dist):
        super().__init__(K, Ks, dist, K - Ks, Ks - 2)

    def values(self, z1, z3, z4):
        d = self.dist
        return (self._pref * d.pdf(z1) * self._last(z4)
                * _inv_pow(d, z4, z1, self.Ks - 2, z3))


class FineHeadMidLast(_Fine):
    """Joint of (sum of ranks 1..m-1, rank-m, sum of ranks m+1..Ks-1, rank-Ks)."""

    def __init__(self, K, Ks, m, dist):
        super().__init__(K, Ks, dist, K - Ks, m - 1, Ks - m - 1)
        self.m = m

    def values(self, z1, z2, z3, z4):
        d, m = self.dist, self.m
        head = _inv_pow(d, z2, math.inf, m - 1, z1)
        mid = _inv_pow(d, z4, z2, self.Ks - m - 1, z3)
        return self._pref * d.pdf(z2) * self._last(z4) * head * mid


class FineRankRestLast(_Fine):
    """Joint of (rank-m variable, sum of the other ranks 1..Ks-1, rank-Ks
    variable), 2 <= m <= Ks-2: above the rank-Ks value z4 the best Ks-1
    are i.i.d., so the first two coordinates are ``t2_jpdf``'s pair of
    Ks-1 variables with the lower limit 0 replaced by z4."""

    def __init__(self, K, Ks, m, dist):
        super().__init__(K, Ks, dist, K - Ks, m - 1, Ks - m - 1)
        self.m = m

    def values(self, x, w, z4):
        d, m = self.dist, self.m
        below, above = (z4, x, self.Ks - m - 1), (x, math.inf, m - 1)
        return (self._pref * d.pdf(x) * self._last(z4)
                * _inv_prod(d, below, above, w))


class FineHeadTailLast:
    """Joint of (sum x of ranks 1..m, sum y of ranks m+1..Ks, rank-Ks
    variable z4), 2 <= m <= Ks-2: ``FineHeadMidLast`` with the rank-m
    value z2 integrated out, at the head sum x - z2 and the mid sum y - z4.

    The integrals at the elements are the rows of one rule.  Below
    (y - z4) / (Ks-m-1) the mid sum is outside its support, so the
    integral starts at that edge; knot j is where the mid sum reaches
    its j-th lattice point, (Ks-m-1-j) z4 + j z2.
    """

    def __init__(self, K, Ks, m, dist):
        self.Ks, self.m = Ks, m
        self._fine = FineHeadMidLast(K, Ks, m, dist)

    def values(self, x, y, z4):
        x, y, z4 = np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                         for c in (x, y, z4)))
        shape = x.shape
        x, y, z4 = (c.ravel() for c in (x, y, z4))
        nt = self.Ks - self.m
        j = np.arange(1, nt)
        knots = (y[:, None] - np.multiply.outer(z4, nt - j)) / j
        return rules._gauss_knots(
            lambda z2, q: self._fine.values(x[q] - z2, z2, y[q] - z4[q],
                                            z4[q]),
            (y - z4) / (nt - 1), x / self.m, knots,
            deg=self.Ks - 4, exact=False).reshape(shape)[()]


class FineHeadNextLast(_Fine):
    """Joint of (sum of ranks 1..Ks-2, rank-(Ks-1) variable, rank-Ks variable)."""

    def __init__(self, K, Ks, dist):
        super().__init__(K, Ks, dist, K - Ks, Ks - 2)

    def values(self, z1, z2, z4):
        d = self.dist
        return (self._pref * d.pdf(z2) * self._last(z4)
                * _inv_pow(d, z2, math.inf, self.Ks - 2, z1))


# The fine density of each T5 case, and T6's, for ``reductions.t5_fine``
# and ``t6_fine``.
_FINES = {"a": FineOneMidLast, "b": FineRankRestLast, "c": FineHeadNextLast,
          "d": FineLastHead, "t6": FineHeadTailLast}


def t3_jpdf(dist, K, m, z1, z2):
    """Joint density of (sum of the m largest, sum of the K-m smallest)."""
    if not 1 <= m <= K - 1:
        raise DomainError("need 1 <= m <= K-1")
    if m == 1:
        # The head is one variable; exp(-s*g) collapses the outer integral
        # and the pair is the rank-1 one-vs-rest joint.
        return t2_jpdf(dist, K, 1, z1, z2)
    return reductions.t3(FineHeadRankTail(K, m, dist), K, m, z1, z2)


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
