"""The kernels of the exact densities, over node arrays: one evaluation
of nonnegative Bernstein pieces, and two tables of weights for it.

A piece of a table is a homogeneous polynomial ``sum_i w_i s^i t^(p-i)``
of degree p in the distances ``s = u - (a + k) h`` and
``t = (a + k + 1) h - u`` of a node u from the knots of its piece k,
both in ``[0, h]``, with nonnegative weights ``w_i``.  ``_pieces``
evaluates it as ``max(s, t)^p sum_i w_i r^i`` by Horner's scheme,
``r = min(s, t) / max(s, t)`` in ``[0, 1]``, the weights reversed where
``s > t``: nonnegative terms only, so that nothing cancels.  Each table
is built once per shape in exact integers, at first use, and each weight
is rounded to float once.

``power_difference`` is the step sum with binomial coefficients and
equally spaced thresholds, ``sum_j (-1)^j C(n, j) (u - (a + j) h)_+^p``,
which the exact T2 and the fine densities evaluate; a term counts
exactly at its threshold (the step is closed on the left).  With
``x = (u - a h) / h`` it is ``h^p g_{n,p}(x)``, the n-th difference of the
truncated power ``x_+^p`` (for p = n - 1, ``(n-1)!`` times the cardinal
B-spline of order n):

* on each unit piece ``[k, k + 1)``, k < n, ``g_{n,p}`` is a polynomial
  of degree p whose Bernstein coefficients ``b_i`` are nonnegative (de
  Boor, J. Approx. Theory 6, 1972; Farouki & Rajan, CAGD 4, 1987): its
  table (``_piece_table``) holds ``w_i = C(p, i) b_i``;
* past the last knot, ``x >= n``, it is
  ``n! sum_{j=n}^{p} C(p, j) S(j, n) (x - n)^(p-j)``, with S the Stirling
  numbers of the second kind, and 0 for p < n.  This form runs in the
  units of ``u`` too: it takes ``h^j (u - (a + n) h)^(p-j)``, so that no
  ``x`` is formed and a tiny ``h`` neither overflows nor divides.

``head_tail`` is the T3 density of N unit exponentials, a head of the m
largest against the tail, divided by ``exp(-(h + t))``.  The tail share
T/S of the sum S = H + T has for density the B-spline of degree N-2 with
the knots 0 (m times) and ``j / (m + j)``, j = 1..N-m (``exact_exp``'s
docstring says why), so on cone k, ``k <= m t / h < k + 1``, the density
is a homogeneous polynomial of degree N-2 in ``s = m t - k h`` and
``t' = (k + 1) h - m t``: the pieces above with u = m t, a = 0 and
n = N - m.  Its weights (``_head_tail_table``) are the B-spline's
Bernstein coefficients on that piece, scaled, so they are nonnegative
too; s and t' sum to h, and the larger of them is taken as h minus the
smaller, so that a rounding moves a node along its piece and not off it.
"""

import functools
import math
import operator

import numpy as np

__all__ = ["power_difference", "head_tail"]

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


@functools.lru_cache(maxsize=None)
def _head_tail_table(N, m):
    """The weights ``W_{k,i}`` of T3 for N variables and a head of m,
    2 <= m <= N - 1, laid out as ``_piece_table``'s: a
    ``(N - 1, 2 (N - m))`` array, column k holding ``W_{k,0} .. W_{k,d}``
    and column ``N - m + k`` the same reversed.

    With n = N - m, d = N - 2 and ``L = lcm(1..n)^m``, ``W_{k,i}`` is
    ``C(d, i) N! S_{k,i} / (m! m^(n-1) d! (n-1)! L)``, where the integer
    ``S_{k,i} = sum_{q=1}^{n-k} c_{k+q} q^(d-i) (q-1)^i`` with
    ``c_p = (-1)^(n-p) C(n-1, p-1) L / p^m``.  Each ``S_{k,i}`` is exact
    and nonnegative (module docstring), and each weight is one correctly
    rounded integer quotient.
    """
    n, d = N - m, N - 2
    lcm = math.lcm(*range(1, n + 1)) ** m
    c = [(-1) ** (n - p) * math.comb(n - 1, p - 1) * (lcm // p ** m)
         for p in range(1, n + 1)]
    # pw[i][q-1] = q^(d-i) (q-1)^i, q = 1..n.
    pw = [[q ** (d - i) * (q - 1) ** i for q in range(1, n + 1)]
          for i in range(d + 1)]
    num = [math.comb(d, i) * math.factorial(N) for i in range(d + 1)]
    den = (math.factorial(m) * m ** (n - 1) * math.factorial(d)
           * math.factorial(n - 1) * lcm)
    cols = []
    for k in range(n):
        sums = [sum(map(operator.mul, c[k:], pw[i])) for i in range(d + 1)]
        assert min(sums) >= 0, (N, m, k)
        cols.append([num[i] * sums[i] / den for i in range(d + 1)])
    tab = np.array(cols).T
    return np.ascontiguousarray(np.concatenate([tab, tab[::-1]], axis=1))


def _pieces(tab, n, p, u, h, a, sum_to_h=False):
    """``big^p sum_i w_i r^i`` on the piece k of each node, with
    ``s = u - (a + k) h``, ``t = (a + k + 1) h - u``, ``big = max(s, t)``,
    ``r = min(s, t) / big``, and ``tab`` a ``(p + 1, 2n)`` table whose
    column k holds the piece's ``w_0 .. w_p`` and column ``n + k`` the
    same reversed.

    ``u`` and ``h`` are 1-d arrays with ``a h <= u < (a + n) h``: only
    h > 0 leaves room between the first and the last knot.  With
    ``sum_to_h`` the larger distance is taken as h minus the smaller, so
    that the pair sums to h: each rounding of s or t then moves the node
    along its piece, and not off the line s + t = h, which the power p
    would amplify.
    """
    k = np.clip(np.floor((u - a * h) / h), 0, n - 1)
    # A node counts in the piece of the last knot at or below it, as the
    # float knots (a + k) h place it; the quotient misses by at most one
    # piece.
    k -= u - (a + k) * h < 0.0
    k += (a + k + 1) * h - u <= 0.0
    s = u - (a + k) * h
    t = (a + k + 1) * h - u
    small = np.minimum(s, t)
    big = h - small if sum_to_h else np.maximum(s, t)
    r = small / big
    col = k.astype(np.intp) + n * (s > t)
    acc = tab[p][col]
    for i in range(p - 1, -1, -1):
        acc *= r
        acc += tab[i][col]
    return acc * big ** p


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
        out[inside] = _pieces(_piece_table(n, p), n, p, u[inside], h[inside],
                              a)
    if p >= n and past.any():
        wp, hp = w[past], h[past]
        c = _tail_coeffs(n, p)
        acc, he = np.full(wp.shape, c[0]), np.ones(wp.shape)
        for e in range(1, p - n + 1):
            he *= hp
            acc = acc * wp + c[e] * he
        out[past] = acc * hp ** n
    return out[()]


def head_tail(N, m, h, t):
    """The T3 density of N unit exponentials at head sum h (the m largest)
    and tail sum t, divided by ``exp(-(h + t))``, for 2 <= m <= N - 1: on
    cone k, ``sum_i W_{k,i} s^i t'^(N-2-i)`` from nonnegative terms
    (module docstring), and 0 outside ``0 <= m t < (N - m) h``.

    ``h`` and ``t`` are arrays (or scalars) that broadcast, with finite
    values wherever the result is used; so is the result.
    """
    h, t = np.broadcast_arrays(np.asarray(h, dtype=float),
                               np.asarray(t, dtype=float))
    n = N - m
    u = m * t
    out = np.zeros(u.shape)
    inside = (u >= 0.0) & (u - n * h < 0.0)
    if inside.any():
        out[inside] = _pieces(_head_tail_table(N, m), n, N - 2, u[inside],
                              h[inside], 0, sum_to_h=True)
    return out[()]
