"""The shared reductions on the generic path's fine densities."""

import math

import numpy as np
import pytest

from ordstat import exact_exp, generic_joint as gj, reductions, rules
from ordstat.distributions import Exponential, HalfNormal
from ordstat.mc_oracle import sample_sorted
from ordstat.partition import t5_case

HN = HalfNormal(1.0)
EXP = Exponential(1.0)
K = 5


def _typical(Ks, m):
    # The mean point of (rank-m value, sum of the other best Ks-1), and one
    # displaced from it.
    best = sample_sorted(HN, K, 20000, seed=3)[:, :Ks]
    x = float(best[:, m - 1].mean())
    y = float(best.sum(axis=1).mean()) - x
    return [(x, y), (0.85 * x, 1.1 * y)]


@pytest.mark.parametrize("Ks,m", [(4, 1), (4, 2), (4, 3),
                                  (5, 1), (5, 2), (5, 3), (5, 4)])
def test_t5_elimination_orders_agree_on_generic_fine_densities(Ks, m):
    assert t5_case(Ks, m) in "abc"
    fine = reductions.t5_fine(gj._FINES, K, Ks, m, HN)
    for x, y in _typical(Ks, m):
        first = reductions.t5(fine, Ks, m, x, y, order=1)
        assert first >= 1e-3
        assert reductions.t5(fine, Ks, m, x, y, order=2) == pytest.approx(
            first, rel=1e-7)
        assert gj.t5_jpdf(HN, K, Ks, m, x, y) == first


# -- T5b and T6 as one integral each, against one scalar inner rule per
# node of the four-group density --


class _HeadMidLast:
    """The generic four-group joint of (sum of ranks 1..m-1, rank m, sum
    of ranks m+1..Ks-1, rank Ks), the pdf and CDF power of the rank-Ks
    value times kernel-power inverses: the reference that the exact
    path's ``FineHeadMidLast`` is in closed form."""

    def __init__(self, K, Ks, m, dist):
        self.K, self.Ks, self.m, self.dist = K, Ks, m, dist
        self.pref = reductions._pref(K, K - Ks, m - 1, Ks - m - 1)

    def values(self, z1, z2, z3, z4):
        d, K, Ks, m = self.dist, self.K, self.Ks, self.m
        head = gj._inv_pow(d, z2, math.inf, m - 1, z1)
        mid = gj._inv_pow(d, z4, z2, Ks - m - 1, z3)
        last = np.asarray(d.cdf(z4)) ** (K - Ks) * d.pdf(z4)
        return self.pref * d.pdf(z2) * last * head * mid


def _per_node(fine, Ks, lo, hi, knots, inner):
    """The outer rule of the nested T5b or T6 with one scalar inner rule
    per node, on the four-group density: exact-degree Gauss-Legendre on the
    exact path, where it is a polynomial between the inner knots.

    ``inner(z4)`` gives the integrand and limits of one inner integral.
    """
    exact = isinstance(fine, exact_exp.FineHeadMidLast)

    def loop(z4s, _):
        return np.array([
            rules._gauss_knots(*inner(z4), deg=Ks - 4, exact=exact)
            for z4 in z4s.tolist()])

    return rules._gauss_knots(loop, lo, hi, knots, deg=Ks - 3,
                              exact=False)


def _t5b_per_node(fine, Ks, m, x, y, order):
    nm = Ks - m

    def inner(z4):
        if order == 1:
            return (lambda z1, _: fine.values(z1, x, y - z1 - z4, z4),
                    max((m - 1) * x, y - z4 - (nm - 1) * x), y - nm * z4,
                    [y - (nm - j) * z4 - j * x for j in range(1, nm)])
        return (lambda z3, _: fine.values(y - z3 - z4, x, z3, z4),
                (nm - 1) * z4, min((nm - 1) * x, y - z4 - (m - 1) * x),
                [(nm - 1 - j) * z4 + j * x for j in range(1, nm)])

    knots = [(y - (m + j - 1) * x) / (nm - j) for j in range(1, nm)]
    return _per_node(fine, Ks, 0.0, min(x, (y - (m - 1) * x) / nm),
                     knots + [y - (Ks - 2) * x], inner)


def _t6_per_node(fine, Ks, m, x, y):
    nt = Ks - m

    def inner(z4):
        return (lambda z2, _: fine.values(x - z2, z2, y - z4, z4),
                (y - z4) / (nt - 1), x / m,
                [(y - (nt - j) * z4) / j for j in range(1, nt)])

    return _per_node(fine, Ks, max(0.0, y - (nt - 1) * x / m), y / nt,
                     [(y - j * x / m) / (nt - j) for j in range(1, nt)],
                     inner)


def _mean_point(dist, K, Ks, head, rest):
    # Mean of (sum of ranks in head, sum of ranks in rest), best Ks of K.
    best = sample_sorted(dist, K, 20000, seed=5)[:, :Ks]
    return (float(best[:, [i - 1 for i in head]].sum(axis=1).mean()),
            float(best[:, [i - 1 for i in rest]].sum(axis=1).mean()))


def _fines(path, dist, K, Ks, m):
    # T5b's and T6's fine densities, and the four-group density.
    if path == "exact":
        return (exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, m, 1.0).fine,
                exact_exp.jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, 1.0).fine,
                exact_exp.FineHeadMidLast(K, Ks, m, 1.0))
    return (reductions.t5_fine(gj._FINES, K, Ks, m, dist),
            reductions.t6_fine(gj._FINES, K, Ks, m, dist),
            _HeadMidLast(K, Ks, m, dist))


@pytest.mark.parametrize("path,dist,K,Ks,m", [
    ("exact", EXP, 5, 5, 2), ("exact", EXP, 10, 8, 3), ("exact", EXP, 10, 8, 4),
    ("exact", EXP, 30, 27, 3),
    ("generic", HN, 5, 5, 2), ("generic", HN, 6, 6, 3),
    ("generic", EXP, 5, 5, 3), ("generic", EXP, 6, 5, 2)])
def test_batched_inner_rules_match_a_per_node_loop(path, dist, K, Ks, m):
    # T5b integrates FineRankRestLast over one coordinate, and T6
    # FineHeadTailLast; the references integrate the four-group density
    # over two.
    t5b, t6, mid = _fines(path, dist, K, Ks, m)
    assert t5_case(Ks, m) == "b"
    assert isinstance(t5b, (exact_exp.FineRankRestLast, gj.FineRankRestLast))
    assert isinstance(t6, (exact_exp.FineHeadTailLast, gj.FineHeadTailLast))
    rest = [i for i in range(1, Ks + 1) if i != m]
    x, y = _mean_point(dist, K, Ks, [m], rest)
    for order in (1, 2):
        want = _t5b_per_node(mid, Ks, m, x, y, order)
        assert want >= 1e-4
        assert reductions.t5(t5b, Ks, m, x, y, order) == pytest.approx(
            want, rel=1e-13)
    x, y = _mean_point(dist, K, Ks, range(1, m + 1), range(m + 1, Ks + 1))
    want = _t6_per_node(mid, Ks, m, x, y)
    assert want >= 1e-4
    assert reductions.t6(t6, Ks, m, x, y) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("exact", [True, False])
def test_row_batch_matches_single_rows(exact):
    # Rows with an empty interval (hi == lo, hi < lo), knots outside the
    # interval, knots on an end and coinciding knots.
    lo = np.array([0.0, 1.0, 2.0, 0.0, 0.5, -1.0])
    hi = np.array([1.0, 1.0, 1.0, 2.0, 1.5, 1.0])
    knots = np.array([[0.3, 0.6, 0.9], [1.0, 1.0, 1.0], [1.5, 1.5, 0.0],
                      [0.5, 0.5, 0.5], [0.5, 1.5, 3.0], [-2.0, 0.0, 0.0]])
    scale = np.arange(1.0, lo.size + 1.0)

    def f(x, row):
        # Degree 5 between knots only where a knot sits at the kink, 0.5.
        return scale[row] * (x ** 5 - np.abs(x - 0.5) ** 3)

    got = rules._gauss_knots(f, lo, hi, knots, deg=5, exact=exact)
    assert got.shape == lo.shape
    for i in range(lo.size):
        want = rules._gauss_knots(
            lambda x, _: f(x, np.full(x.size, i)), lo[i], hi[i],
            knots[i].tolist(), deg=5, exact=exact)
        assert got[i] == want
    assert got[1] == got[2] == 0.0
    # Closed form where the knots (three of them) cut at the kink.
    assert got[3] == pytest.approx(
        4 * (2 ** 6 / 6 - (0.5 ** 4 + 1.5 ** 4) / 4), rel=1e-13)


def _count_values(fine, fn):
    calls = []
    values = fine.values

    def counted(*z):
        calls.append(z)
        return values(*z)

    fine.values = counted
    fn()
    return len(calls)


def test_inner_rules_take_few_values_calls():
    # One rule of the outer nodes at n and 2n nodes gives two calls; the
    # per-node inner rules took 72, 36 and 122 calls at these points.
    t5b = exact_exp.jpdf_one_vs_rest_bestKs(10, 8, 3, 1.0).fine
    x, y = _mean_point(EXP, 10, 8, [3], [1, 2, 4, 5, 6, 7, 8])
    assert _count_values(t5b, lambda: reductions.t5(t5b, 8, 3, x, y)) < 10
    t6 = exact_exp.jpdf_headsum_vs_tailsum_bestKs(10, 8, 4, 1.0).fine
    x, y = _mean_point(EXP, 10, 8, [1, 2, 3, 4], [5, 6, 7, 8])
    assert _count_values(t6, lambda: reductions.t6(t6, 8, 4, x, y)) < 10
    hn = reductions.t5_fine(gj._FINES, K, 4, 2, HN)
    x, y = _typical(4, 2)[0]
    assert _count_values(hn, lambda: reductions.t5(hn, 4, 2, x, y)) < 20
