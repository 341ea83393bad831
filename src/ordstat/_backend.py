"""Step-sum kernels: sums of truncated power terms, over node arrays.

A term is ``coeff * (z - threshold)**power`` supported on ``z >= threshold``
(the step is closed on the left: a term counts exactly at its threshold).

``poly_exp_eval`` sums any such terms.  Callers pass them sorted by
ascending ``|coeff|``; the sum is compensated (Neumaier) so that the
alternating sums produced by binomial expansions lose as little as
possible.  Powers are nonnegative integers, as floats.  ``z`` is a node
array (or a scalar, one node), and the thresholds are ``(T,)``, shared by
every node, or term-major ``(T, *nodes)``, a threshold per term and node
whose node axes broadcast against ``z``.  The running sums are a
cumulative sum along the terms, and each compensation term comes from the
branch-free two-sum against the previous running sum.  ``pow`` runs only
on the live terms, those at or above their thresholds; at the nodes of the
exact reductions most terms are dead.  A dead term keeps the 0 of its
clipped base, so that its product with the coefficient is the signed zero
that raising it and multiplying by 0 gives, and the running and
compensated sums take the same values as with every term raised.
``poly_exp_eval_scale`` also returns the sum of |term|.

``power_difference`` is the one step sum with binomial coefficients and
equally spaced thresholds, ``sum_j (-1)^j C(n, j) (u - (a + j) h)_+^p``,
computed from nonnegative terms only, so that it does not cancel.  With
``x = (u - a h) / h`` it is ``h^p g_{n,p}(x)``, the n-th difference of
the truncated power ``x_+^p``, and (Cox 1972; de Boor, J. Approx. Theory
6, 1972):

* ``g_{0,q}(y) = y_+^q``, and ``g_{1,0}(y)`` is 1 on ``[0, 1)``, else 0;
* for ``0 <= y <= r``,
  ``g_{r,q}(y) = y g_{r-1,q-1}(y) + (r - y) g_{r-1,q-1}(y - 1)``;
* for ``y >= r``, past the last knot,
  ``g_{r,q}(y) = r! sum_{j=r}^{q} C(q, j) S(j, r) (y - r)^(q-j)``, with S
  the Stirling numbers of the second kind.

Every weight and value is nonnegative.  The triangle runs in the units of
``u``: each ``y`` is a distance ``u - (a + i) h`` past a threshold, and the
polynomial past the last knot takes ``h^j (u - (a + r) h)^(q-j)``, so that
no ``x`` is formed and a tiny ``h`` neither overflows nor divides.
"""

import functools
import math

import numpy as np

__all__ = ["poly_exp_eval", "poly_exp_eval_scale", "power_difference"]


def poly_exp_eval(coeff, threshold, power, z):
    """Evaluate a step sum of truncated power terms at the nodes ``z``."""
    return _nodes(coeff, threshold, power, z, False)[0]


def poly_exp_eval_scale(coeff, threshold, power, z):
    """Like :func:`poly_exp_eval`, and also the sum of |term|.

    The second value bounds the roundoff scale of the cancellation, which
    is what nonnegativity of a density can honestly be measured against.
    """
    return _nodes(coeff, threshold, power, z, True)


def _nodes(coeff, threshold, power, z, scale):
    z = np.asarray(z, dtype=float)
    thr = np.asarray(threshold, dtype=float)
    # Terms along the first axis, nodes (if any) along the others.
    if thr.ndim == 1:
        thr = thr.reshape(-1, *(1,) * z.ndim)
    d = z - thr
    col = (-1,) + (1,) * (d.ndim - 1)
    live = d >= 0.0
    np.maximum(d, 0.0, out=d)
    p = power.reshape(col)
    np.power(d, p, out=d, where=live)
    if not power.all():
        # np.maximum keeps a nan base, which is dead; raised, it would give
        # pow(nan, 0) = 1 and then 0 for being dead.  At p = 0 the raised
        # term is ``live`` itself.
        np.copyto(d, live, where=p == 0.0)
    x = d
    x *= coeff.reshape(col)
    mag = np.abs(x).sum(axis=0) if scale else None
    # Running sums in term order, then the exact rounding error of each
    # addition: two-sum against the previous running sum, computed in place
    # as (x - bp) + (prev - (s - bp)).  The first term is added to 0: its
    # error is x - s, which is 0 (nan for an infinite term).
    s = np.cumsum(x, axis=0)
    bp = s[1:] - s[:-1]
    x[1:] -= bp
    np.subtract(s[1:], bp, out=bp)
    np.subtract(s[:-1], bp, out=bp)
    x[1:] += bp
    x[0] -= s[0]
    return s[-1] + x.sum(axis=0), mag


@functools.lru_cache(maxsize=None)
def _tail_coeffs(n, p):
    """Per level r <= n, the coefficients ``r! C(q, r+e) S(r+e, r)``,
    e = 0..p-n, of the polynomial past the last knot, q = p - n + r."""
    stirling = [[1]]
    for j in range(1, p + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [r * prev[r] + prev[r - 1]
                               for r in range(1, j + 1)])
    return tuple(tuple(float(math.factorial(r) * math.comb(p - n + r, r + e)
                             * stirling[r + e][r])
                       for e in range(p - n + 1))
                 for r in range(n + 1))


def power_difference(n, p, u, h, a):
    """``sum_j (-1)^j C(n, j) (u - (a + j) h)_+^p``, j = 0..n, from
    nonnegative terms (module docstring).

    ``u`` and ``h >= 0`` are arrays (or scalars) that broadcast, with finite
    values; so is the result.  Needs ``p >= n - 1`` and ``p >= 0``: the
    n-th difference of a lower power is a distribution, not a function.
    """
    u, h = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(h, dtype=float))
    # d[i]: the distance of u past threshold i, falling in i.
    slopes = np.arange(a, a + n + 1, dtype=float)
    d = u - slopes.reshape((-1,) + (1,) * u.ndim) * h
    deg = p - n     # of the polynomial past the last knot, at every level
    if deg >= 0:
        first = 0
        v = np.where(d >= 0.0, np.maximum(d, 0.0) ** deg, 0.0)
    else:
        first = 1
        v = ((d[:-1] >= 0.0) & (d[1:] < 0.0)).astype(float)
    coeffs = _tail_coeffs(n, p)
    hs = np.broadcast_to(h, d.shape)
    for r in range(first + 1, n + 1):
        # Entry i of level r is the r-th difference from threshold i: 0
        # before it, the recurrence up to threshold i + r, the polynomial
        # past that.
        lo, hi = d[:n - r + 1], d[r:]
        v = lo * v[:-1] - hi * v[1:]
        past = hi > 0.0
        if deg >= 0 and past.any():
            w, hp = hi[past], hs[r:][past]
            c = coeffs[r]
            acc, he = np.full(w.shape, c[0]), np.ones(w.shape)
            for e in range(1, deg + 1):
                he *= hp
                acc = acc * w + c[e] * he
            v[past] = acc * hp ** r
        v[lo < 0.0] = 0.0
    return v[0]
