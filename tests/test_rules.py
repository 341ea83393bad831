"""The nested Gauss-Kronrod pair and the node counts of ``rules._doubled``."""

import numpy as np
import pytest

from ordstat import rules

EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", range(4, 65))
def test_kronrod_rule_has_degree_3n_plus_1(n):
    x, _, wk = rules._kronrod(n)
    assert x.size == 2 * n + 1 and np.all(np.diff(x) > 0)
    for k in range(3 * n + 2):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ x ** k - want) <= 16 * EPS, k


@pytest.mark.parametrize("n", range(1, 65))
def test_kronrod_embeds_legendre_bit_for_bit(n):
    x, wg, wk = rules._kronrod(n)
    xl, wl = rules._legendre(n)
    assert np.array_equal(x[1::2], xl) and np.array_equal(wg[1::2], wl)
    assert np.all(wg[::2] == 0.0)
    assert not any(a.flags.writeable for a in (x, wg, wk))


def _counted(f):
    sizes = []

    def g(x, row):
        sizes.append(x.size)
        return f(x)
    return g, sizes


def test_pair_reuses_its_gauss_nodes():
    # Two knot segments from n0 = 0 // 2 + 1 + _SMOOTH_EXTRA = 4.  A
    # quadratic converges on the first pair, at 2 n0 + 1 nodes a segment.
    # 1e3 x^8 is beyond G_4 but within G_8, so its row takes one more
    # pair, at 4 n0 + 1 nodes a segment.
    n0 = 1 + rules._SMOOTH_EXTRA
    f, sizes = _counted(lambda x: x * x)
    got = rules._gauss_knots(f, 0.0, 1.0, [0.5], deg=0, exact=False)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert sizes == [2 * (2 * n0 + 1)]
    f, sizes = _counted(lambda x: 1e3 * x ** 8)
    got = rules._gauss_knots(f, 0.0, 1.0, [0.5], deg=0, exact=False)
    assert got == pytest.approx(1e3 / 9.0, rel=1e-15)
    assert sizes == [2 * (2 * n0 + 1), 2 * (4 * n0 + 1)]


def test_paired_rule_evaluates_each_size_once():
    # The n/2n pair of a one-member rule runs it at n, 2n, 4n, ...: each
    # call's 2n-node estimate is the next call's n-node one.
    sizes = []

    def rule(n, todo):
        sizes.append(n)
        x, w = rules._legendre(n)
        return np.array([[w @ np.exp(5.0 * x)] for _ in todo])

    got = rules._doubled(rules._paired(rule), 2, [-1.0], [1.0], 1e-12, 1e-12)
    assert got[0] == pytest.approx((np.exp(5.0) - np.exp(-5.0)) / 5.0,
                                   rel=1e-13)
    assert sizes == [2, 4, 8, 16, 32]
