"""The shared reductions on the generic path's fine densities."""

import pytest

from ordstat import generic_joint as gj, reductions
from ordstat.distributions import HalfNormal
from ordstat.mc_oracle import sample_sorted
from ordstat.partition import t5_case

HN = HalfNormal(1.0)
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
    fine = reductions.t5_fine(gj._T5_FINES, K, Ks, m, HN)
    assert not fine.piecewise_polynomial
    for x, y in _typical(Ks, m):
        first = reductions.t5(fine, Ks, m, x, y, order=1)
        assert first >= 1e-3
        assert reductions.t5(fine, Ks, m, x, y, order=2) == pytest.approx(
            first, rel=1e-7)
        assert gj.t5_jpdf(HN, K, Ks, m, x, y) == first
