"""The step-sum kernel of the exact densities, over node arrays.

A term is ``coeff * (z - threshold)**power`` supported on ``z >= threshold``
(the step is closed on the left: a term counts exactly at its threshold).

``power_difference`` is the step sum with binomial coefficients and
equally spaced thresholds, ``sum_j (-1)^j C(n, j) (u - (a + j) h)_+^p``,
which every exact density evaluates.  It is computed from nonnegative
terms only, so that it does not cancel.  With ``x = (u - a h) / h`` it is
``h^p g_{n,p}(x)``, the n-th difference of the truncated power ``x_+^p``
(for p = n - 1, ``(n-1)!`` times the cardinal B-spline of order n):

* on each unit piece ``[k, k + 1)``, k < n, ``g_{n,p}`` is a polynomial
  of degree p whose Bernstein coefficients are nonnegative (de Boor,
  J. Approx. Theory 6, 1972; Farouki & Rajan, CAGD 4, 1987).  With
  ``s = u - (a + k) h`` and ``t = (a + k + 1) h - u``, both in ``[0, h]``,
  the piece is ``sum_i w_i s^i t^(p-i)``, ``w_i = C(p, i) b_i``.  Its
  table (``_piece_table``) is built once per (n, p) in exact integers and
  rounded to float once; a node evaluates
  ``max(s, t)^p sum_i w_i r^i`` by Horner's scheme, ``r = min(s, t) /
  max(s, t)`` in ``[0, 1]``, the coefficients reversed where ``s > t``;
* past the last knot, ``x >= n``, it is
  ``n! sum_{j=n}^{p} C(p, j) S(j, n) (x - n)^(p-j)``, with S the Stirling
  numbers of the second kind, and 0 for p < n.

Every weight and value is nonnegative.  Both forms run in the units of
``u``: the polynomial past the last knot takes
``h^j (u - (a + n) h)^(p-j)``, so that no ``x`` is formed and a tiny ``h``
neither overflows nor divides.
"""

import functools
import math

import numpy as np

__all__ = ["power_difference"]

# Placeholders: perfbench's tracer wraps these two names, and no ordstat
# code reads them.
poly_exp_eval = poly_exp_eval_scale = None


@functools.lru_cache(maxsize=None)
def _tail_coeffs(n, p):
    """``n! C(p, n+e) S(n+e, n)``, e = 0..p-n: the coefficients of the
    polynomial past the last knot."""
    stirling = [[1]]
    for j in range(1, p + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [r * prev[r] + prev[r - 1]
                               for r in range(1, j + 1)])
    return tuple(float(math.factorial(n) * math.comb(p, n + e)
                       * stirling[n + e][n])
                 for e in range(p - n + 1))


@functools.lru_cache(maxsize=None)
def _piece_table(n, p):
    """The scaled Bernstein coefficients ``w_i`` of ``g_{n,p}`` on each
    piece ``[k, k + 1)``, k < n, as a ``(p + 1, 2n)`` array: column k holds
    ``w_0 .. w_p`` and column ``n + k`` the same reversed.

    On piece k, ``g(k + tau) = sum_j a_j tau^j`` with the integers
    ``a_j = C(p, j) sum_{l <= k} (-1)^l C(n, l) (k - l)^(p-j)``, and
    ``w_i = sum_{j <= i} C(p - j, i - j) a_j`` (expand each ``tau^j`` by
    ``(tau + (1 - tau))^(p-j)``).  Both are exact; each ``w_i`` is
    rounded once.
    """
    alt = [(-1) ** l * math.comb(n, l) for l in range(n + 1)]
    pw = [[b ** e for e in range(p + 1)] for b in range(n)]
    cols = []
    for k in range(n):
        a = [math.comb(p, j) * sum(alt[l] * pw[k - l][p - j]
                                   for l in range(k + 1))
             for j in range(p + 1)]
        cols.append([float(sum(math.comb(p - j, i - j) * a[j]
                               for j in range(i + 1)))
                     for i in range(p + 1)])
    tab = np.array(cols).T
    return np.ascontiguousarray(np.concatenate([tab, tab[::-1]], axis=1))


def power_difference(n, p, u, h, a):
    """``sum_j (-1)^j C(n, j) (u - (a + j) h)_+^p``, j = 0..n, from
    nonnegative terms (module docstring).

    ``u`` and ``h`` are arrays (or scalars) that broadcast, with finite
    values and ``h >= 0`` wherever the result is used; so is the result.  Needs ``p >= n - 1`` and ``p >= 0``: the
    n-th difference of a lower power is a distribution, not a function.
    """
    u, h = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(h, dtype=float))
    out = np.zeros(u.shape)
    w = u - (a + n) * h         # the distance past the last threshold
    past = w >= 0.0
    inside = (u - a * h >= 0.0) & ~past
    if inside.any():
        # Only h > 0 leaves room between the first and the last threshold.
        ui, hi = u[inside], h[inside]
        k = np.clip(np.floor((ui - a * hi) / hi), 0, n - 1)
        # A node counts in the piece of the last threshold at or below it,
        # as the float thresholds (a + k) h place it; the quotient misses
        # by at most one piece.
        k -= ui - (a + k) * hi < 0.0
        k += (a + k + 1) * hi - ui <= 0.0
        s = ui - (a + k) * hi
        t = (a + k + 1) * hi - ui
        big = np.maximum(s, t)
        r = np.minimum(s, t) / big
        col = k.astype(np.intp) + n * (s > t)
        tab = _piece_table(n, p)
        acc = tab[p][col]
        for i in range(p - 1, -1, -1):
            acc *= r
            acc += tab[i][col]
        out[inside] = acc * big ** p
    if p >= n and past.any():
        wp, hp = w[past], h[past]
        c = _tail_coeffs(n, p)
        acc, he = np.full(wp.shape, c[0]), np.ones(wp.shape)
        for e in range(1, p - n + 1):
            he *= hp
            acc = acc * wp + c[e] * he
        out[past] = acc * hp ** n
    return out[()]
