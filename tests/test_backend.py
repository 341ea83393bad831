"""``power_difference`` against exact binomial step sums in rationals,
``head_tail``'s weights against rational sums, and the shapes and limits
of both."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ordstat import _backend
from ordstat.exact_exp import K_CAP

EPS = np.finfo(float).eps


def _exact_difference(n, p, u, h, a):
    """``sum_j (-1)^j C(n, j) (u - (a + j) h)_+^p`` in rationals, at the
    float inputs, and the distance of u from the nearest edge of the
    support: the first threshold, and for p < n the last one."""
    u, h = Fraction(float(u)), Fraction(float(h))
    edges = [a * h] + ([(a + n) * h] if p < n else [])
    return (sum((-1) ** j * math.comb(n, j) * (u - (a + j) * h) ** p
                for j in range(n + 1) if u >= (a + j) * h),
            min(abs(u - e) for e in edges))


@pytest.mark.parametrize("n,p", [(1, 0), (2, 1), (5, 4), (18, 17), (28, 27),
                                 (29, 28), (0, 0), (0, 7), (1, 1), (3, 9),
                                 (14, 28), (28, 28)])
def test_power_difference_matches_exact_sums(n, p):
    rng = np.random.default_rng(7 * n + p)
    if n:
        assert np.all(_backend._piece_table(n, p) >= 0.0)
    for a in (0, 1, 3):
        h = rng.uniform(0.05, 3.0, 260)
        x = rng.uniform(-1.0, n + 3.0, 260)
        x[:20] = rng.integers(0, n + 1, 20)        # on a knot
        x[20:30] = rng.integers(0, n + 1, 10) + 1e-9
        # Exactly on a knot, where a term counts at its own threshold, and
        # 1e-12 to either side of one: binary fractions for h keep
        # (a + x) h exact.
        h[200:] = rng.choice([0.25, 0.5, 0.75, 1.0, 1.5], 60)
        x[200:] = (rng.integers(0, n + 1, 60)
                   + np.repeat([0.0, 1e-12, -1e-12], 20))
        u = (a + x) * h
        got = _backend.power_difference(n, p, u, h, a)
        assert got.shape == u.shape
        for g, ui, hi in zip(got.tolist(), u.tolist(), h.tolist()):
            want, delta = _exact_difference(n, p, ui, hi, a)
            assert g >= 0.0
            # Every term is nonnegative: the error is relative, a few
            # roundings per degree, plus the rounding of the distance from
            # the nearest support edge.  A point within a few ulps of an
            # edge may land on either side of it, unless it is on the edge.
            # A positive value below about 1e-290 has no relative accuracy:
            # the piece's sum underflows before max(s, t)^p scales it.
            if delta == 0:
                assert g == want
            elif delta > 16 * EPS * abs(ui) and not 0 < want < 1e-290:
                bound = 8 * EPS * (p * abs(ui) / delta + (p + 2) ** 2)
                assert abs(g - want) <= bound * abs(want)


def test_power_difference_shapes_and_limits():
    # Scalars give a scalar, arrays broadcast; h = 0 puts every threshold
    # at a*h = 0, where the n-th difference of a constant vanishes.
    assert np.shape(_backend.power_difference(3, 4, 2.5, 0.5, 0)) == ()
    got = _backend.power_difference(3, 4, np.ones((2, 1)), np.full(5, 0.2), 0)
    assert got.shape == (2, 5)
    assert _backend.power_difference(3, 4, 2.0, 0.0, 1) == 0.0
    assert _backend.power_difference(0, 4, 2.0, 0.0, 1) == 16.0
    # Below the first threshold every term is dead.
    assert _backend.power_difference(3, 4, 0.99, 1.0, 1) == 0.0
    # (1, 0): the indicator of [0, h), closed on the left.
    got = _backend.power_difference(1, 0, np.array([0.0, 0.5, 1.0, 2.0]),
                                    1.0, 0)
    assert got.tolist() == [1.0, 1.0, 0.0, 0.0]


def _fraction_weights(N, m):
    """``W_{k,i}`` of ``_backend.head_tail`` as sums of ``Fraction`` terms,
    term by term as the formula reads: ``C(d, i) N! / (m! m^(n-1) d!)
    sum_{p=k+1}^{n} (-1)^(n-p) (p-k)^(d-i) (p-k-1)^i / (p^m (p-1)! (n-p)!)``.
    """
    n, d = N - m, N - 2
    c = Fraction(math.factorial(N),
                 math.factorial(m) * m ** (n - 1) * math.factorial(d))
    return [[math.comb(d, i) * c * sum(
        Fraction((-1) ** (n - p) * (p - k) ** (d - i) * (p - k - 1) ** i,
                 p ** m * math.factorial(p - 1) * math.factorial(n - p))
        for p in range(k + 1, n + 1)) for i in range(d + 1)]
        for k in range(n)]


@pytest.mark.parametrize("N,m", [(3, 2), (4, 2), (4, 3), (5, 3), (8, 3),
                                 (12, 6), (20, 2), (30, 2), (30, 15),
                                 (30, 29)])
def test_head_tail_weights_match_fraction_sums(N, m):
    # Each weight is its exact value rounded once, as float(Fraction) is.
    tab = _backend._head_tail_table(N, m)
    n = N - m
    assert tab.shape == (N - 1, 2 * n)
    want = np.array([[float(w) for w in col]
                     for col in _fraction_weights(N, m)]).T
    assert np.array_equal(tab[:, :n], want)
    assert np.array_equal(tab[:, n:], want[::-1])


def test_every_head_tail_table_is_nonnegative():
    # All 406 tables with 3 <= N <= K_CAP and 2 <= m <= N-1 (the build
    # asserts it of the exact sums too); the last piece vanishes at the
    # support's far edge, where only its t'^(N-2) term is left.
    count = 0
    for N in range(3, K_CAP + 1):
        for m in range(2, N):
            tab = _backend._head_tail_table(N, m)
            assert np.all(tab >= 0.0) and np.all(np.isfinite(tab))
            assert np.all(tab[1:, N - m - 1] == 0.0) and tab[0, N - m - 1] > 0
            count += 1
    assert count == 406


def test_head_tail_shapes_and_limits():
    # Scalars give a scalar, arrays broadcast; 0 outside 0 <= m t < n h,
    # on the far edge and at h = 0 too.
    assert np.shape(_backend.head_tail(5, 2, 1.0, 0.5)) == ()
    got = _backend.head_tail(5, 2, np.ones((2, 1)), np.linspace(0.0, 2.0, 5))
    assert got.shape == (2, 5)
    # t = 0 and t = 1.5, where m t = n h, are edges where it vanishes.
    assert got[0].tolist() == [0.0, 35 / 72, 5 / 36, 0.0, 0.0]
    assert _backend.head_tail(5, 2, 1.0, -1e-300) == 0.0
    assert _backend.head_tail(5, 2, 0.0, 0.0) == 0.0
    assert _backend.head_tail(5, 2, -1.0, 0.5) == 0.0
    # N = 3, m = 2: the smallest is t, with density 3 e^(-3t), and the
    # other two are 2t plus a Gamma(2) sum, so T3 is 3 (h - 2t) e^-(h+t).
    assert _backend.head_tail(3, 2, 1.0, 0.25) == 1.5
