"""Closed-form exponential densities: normalization, marginals, invariances."""

import functools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ordstat import exact_exp, reductions, rules
from ordstat.distributions import Exponential
from ordstat.errors import ConvergenceError, DomainError, IntegrationWarning

GB = 1.0


def rank_marginal(K, m, z, gb=GB):
    # Textbook density of the m-th largest of K iid exponentials.
    d = Exponential(gb)
    F = d.cdf1(z)
    comb = math.comb(K, m) * m
    return comb * d.pdf1(z) * F ** (K - m) * (1.0 - F) ** (m - 1)


def test_sum_all_is_erlang():
    K, gb = 4, 1.3
    pdf = exact_exp.pdf_sum_all(K, gb)
    a = 1.0 / gb
    for x in (0.3, 2.0, 7.5):
        want = a ** K * x ** (K - 1) * math.exp(-a * x) / math.factorial(K - 1)
        assert pdf(x) == pytest.approx(want, rel=1e-12)
    assert pdf(-0.1) == 0.0


def test_sum_all_cdf_matches_quadrature():
    pdf = exact_exp.pdf_sum_all(3, 0.8)
    for x in (0.5, 2.4, 6.0):
        mass, _ = integrate.quad(pdf, 0.0, x, limit=200)
        assert pdf.cdf(x) == pytest.approx(mass, rel=1e-10)
    assert pdf.cdf(0.0) == 0.0


@pytest.mark.parametrize("K", [1, 2, 4, 8, 16, 30])
def test_sum_all_cdf_matches_arbitrary_precision(K):
    # Includes the lower tail, where 1 - (upper tail) would cancel, and
    # points on both sides of the switch at y = K.
    ys = np.concatenate([np.geomspace(1e-6, 300.0, 120),
                         [K * (1 - 1e-12), K, K * (1 + 1e-12)]])
    pdf = exact_exp.pdf_sum_all(K, 1.0)
    with mpmath.workdps(40):
        for y in ys.tolist():
            want = mpmath.gammainc(K, 0, y, regularized=True)
            got = pdf.cdf(y)
            assert abs(got - want) <= 2e-13 * want, (K, y, got)


def test_sum_all_cdf_takes_arrays():
    # Elements below and above the switch at the mean, and the ends.
    pdf = exact_exp.pdf_sum_all(8, 1.3)
    x = np.array([[-np.inf, -1.0, 0.0, 0.5], [9.0, 10.4, 40.0, 1e3],
                  [np.inf, np.nan, 1e-9, 2.0]])
    got = pdf.cdf(x)
    assert got.shape == x.shape
    assert got[0, :3].tolist() == [0.0, 0.0, 0.0]
    assert got[2, 0] == 1.0 and np.isnan(got[2, 1])
    with mpmath.workdps(40):
        for g, v in zip(got.ravel().tolist(), x.ravel().tolist()):
            if v > 0 and math.isfinite(v):
                want = mpmath.gammainc(8, 0, v / 1.3, regularized=True)
                assert abs(g - want) <= 2e-13 * want
    assert np.ndim(pdf.cdf(2.0)) == 0
    assert pdf.cdf(np.empty((0, 2))).shape == (0, 2)


def test_gsc_with_full_selection_is_erlang():
    gsc = exact_exp.pdf_gsc_sum(4, 4, 1.1)
    erl = exact_exp.pdf_sum_all(4, 1.1)
    for x in (0.4, 1.7, 5.2):
        assert gsc(x) == pytest.approx(erl(x), rel=1e-11)


def test_gsc_best1_is_max_density():
    K, gb = 5, 0.9
    gsc = exact_exp.pdf_gsc_sum(K, 1, gb)
    d = Exponential(gb)
    for x in (0.2, 1.0, 3.1):
        want = K * d.pdf1(x) * d.cdf1(x) ** (K - 1)
        assert gsc(x) == pytest.approx(want, rel=1e-11)


def test_gsc_normalizes():
    gsc = exact_exp.pdf_gsc_sum(5, 3, 1.0)
    mass, _ = integrate.quad(gsc, 0.0, 70.0, limit=300)
    assert mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("K,m", [(3, 1), (4, 2), (5, 5)])
def test_one_vs_rest_recovers_rank_marginal(K, m):
    jd = exact_exp.jpdf_one_vs_rest_allK(K, m, GB)
    for z1 in (0.6, 1.4):
        if m == 1:
            got, _ = integrate.quad(lambda y: jd(z1, y), 0.0, (K - 1) * z1,
                                    points=[j * z1 for j in range(1, K)],
                                    limit=200)
        else:
            got, _ = integrate.quad(lambda y: jd(z1, y), (m - 1) * z1,
                                    (m - 1) * z1 + 50.0, limit=200)
        assert got == pytest.approx(rank_marginal(K, m, z1), rel=1e-8)


def test_head_tail_mass():
    K, m = 3, 2
    jd = exact_exp.jpdf_headsum_vs_tailsum_allK(K, m, GB)

    def inner(x):
        hi = (K - m) * x / m
        val, _ = integrate.quad(lambda y: jd(x, y), 0.0, hi, limit=150)
        return val

    mass, _ = integrate.quad(inner, 0.0, 55.0, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("factory,args,pt", [
    (exact_exp.jpdf_one_vs_rest_allK, (4, 2), (0.9, 3.1)),
    (exact_exp.jpdf_headsum_vs_tailsum_allK, (5, 2), (3.0, 1.4)),
    (exact_exp.jpdf_one_vs_rest_bestKs, (5, 4, 2), (0.8, 2.9)),
    (exact_exp.jpdf_headsum_vs_tailsum_bestKs, (5, 4, 2), (2.6, 1.1)),
])
def test_scale_equivariance(factory, args, pt):
    gb = 1.7
    x, y = pt
    base = factory(*args, 1.0)
    scaled = factory(*args, gb)
    assert scaled(x * gb, y * gb) * gb * gb == pytest.approx(base(x, y),
                                                             rel=1e-10)


def _unit_mean_cases(K):
    """(density maker, its arguments before the mean, coordinates of a
    ranked sample r, largest first) for every family, every T5 case and
    every fine density at K, with Ks = 2K/3."""
    Ks, h = 2 * K // 3, K // 2
    b = Ks // 2                                 # T5 case b
    yield exact_exp.pdf_sum_all, (K,), lambda r: (r.sum(),)
    for m in (1, h, K):
        yield (exact_exp.jpdf_one_vs_rest_allK, (K, m),
               lambda r, m=m: (r[m - 1], r.sum() - r[m - 1]))
    for m in (1, h):
        yield (exact_exp.jpdf_headsum_vs_tailsum_allK, (K, m),
               lambda r, m=m: (r[:m].sum(), r[m:].sum()))
    for ks in (1, Ks):
        yield exact_exp.pdf_gsc_sum, (K, ks), lambda r, ks=ks: (r[:ks].sum(),)
    for m in (1, b, Ks - 1, Ks):                # T5 cases a, b, c and d
        yield (exact_exp.jpdf_one_vs_rest_bestKs, (K, Ks, m),
               lambda r, m=m: (r[m - 1], r[:Ks].sum() - r[m - 1]))
    for m in (1, b, Ks - 1):
        yield (exact_exp.jpdf_headsum_vs_tailsum_bestKs, (K, Ks, m),
               lambda r, m=m: (r[:m].sum(), r[m:Ks].sum()))
    yield (exact_exp.FineHeadTailLast, (K, Ks, b),
           lambda r: (r[:b].sum(), r[b:Ks].sum(), r[Ks - 1]))
    yield (exact_exp.FineOneMidLast, (K, Ks),
           lambda r: (r[0], r[1:Ks - 1].sum(), r[Ks - 1]))
    yield (exact_exp.FineHeadMidLast, (K, Ks, b),
           lambda r: (r[:b - 1].sum(), r[b - 1], r[b:Ks - 1].sum(), r[Ks - 1]))
    yield (exact_exp.FineRankRestLast, (K, Ks, b),
           lambda r: (r[b - 1], r[:Ks - 1].sum() - r[b - 1], r[Ks - 1]))
    yield (exact_exp.FineHeadNextLast, (K, Ks),
           lambda r: (r[:Ks - 2].sum(), r[Ks - 2], r[Ks - 1]))
    yield (exact_exp.FineLastHead, (K, Ks),
           lambda r: (r[Ks - 1], r[:Ks - 1].sum()))


@pytest.mark.parametrize("K", [10, 30])
def test_every_family_in_units_of_the_mean(K):
    # density(z; gb) = gb^-dim density(z / gb; 1), with no power of the
    # rate formed: means far from 1 neither overflow nor lose the value.
    # The points are the expected ranked sample, sum_{j>=r} 1/j for rank
    # r, and it halved and doubled: inside every support.
    r = np.cumsum(1.0 / np.arange(K, 0, -1))[::-1]
    for maker, args, coords in _unit_mean_cases(K):
        unit = maker(*args, 1.0)
        pts = [np.array([c * f for f in (0.5, 1.0, 2.0)]) for c in coords(r)]
        for gb in (1e-12, 1e-5, 1e5, 1e10):
            got = maker(*args, gb).values(*(c * gb for c in pts))
            want = unit.values(*(c * gb / gb for c in pts)) * gb ** -len(pts)
            assert np.all(np.isfinite(got) & (got > 0.0)), (maker, args, gb)
            np.testing.assert_allclose(got, want, rtol=8 * len(pts) * 2e-16,
                                       atol=0, err_msg=f"{maker} {args} {gb}")


CASE_POINTS = {
    "a": ((5, 4, 1), (1.0, 2.0)),
    "b": ((6, 5, 3), (0.5, 2.0)),
    "c": ((5, 4, 3), (0.6, 2.2)),
    "d": ((5, 4, 4), (0.5, 2.0)),
}


@pytest.mark.parametrize("case", sorted(CASE_POINTS))
def test_best_ks_reduction_orders_agree(case):
    (K, Ks, m), (x, y) = CASE_POINTS[case]
    jd = exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, m, GB)
    vals = [jd.reduce_to_2d(x, y, order=k) for k in (0, 1, 2)]
    assert jd(x, y) == pytest.approx(vals[0], rel=1e-12)
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-6)
    assert vals[0] > 0.0


@pytest.mark.parametrize("order", [-1, 3, 7, 1.5, None])
def test_best_ks_order_outside_0_1_2_raises(order):
    # Every case, d too, where the order picks nothing.
    for m in (1, 3, 5, 6):
        jd = exact_exp.jpdf_one_vs_rest_bestKs(8, 6, m, GB)
        with pytest.raises(DomainError, match="order"):
            jd.reduce_to_2d(1.0, 6.0, order=order)


def test_gauss_2d_exact_on_a_triangle():
    # x*y^3 over {0 <= x <= 1, x <= y <= 2 - x}: the polynomial part of
    # degree 3 in y takes the starting rule, and the n/2n test passes at
    # once.
    f = lambda x, y: x * y ** 3
    got = rules._gauss_2d(f, 0.0, 1.0, lambda x: (x, 2.0 - x), deg=3,
                          epsabs=1e-15, epsrel=1e-14)
    assert got == pytest.approx(13.0 / 30.0, rel=1e-14)
    assert rules._gauss_2d(f, 1.0, 1.0, lambda x: (x, x), deg=3,
                           epsabs=1e-15, epsrel=1e-14) == 0.0


def test_gauss_2d_raises_on_non_finite():
    with pytest.raises(ConvergenceError):
        rules._gauss_2d(lambda x, y: np.where(y > 0.5, np.nan, 1.0),
                        0.0, 1.0, lambda x: (0 * x, 1 + x), deg=0,
                        epsabs=1e-11, epsrel=1e-9)


def test_best_ks_swapped_pair_case():
    # (rank-1, rank-2) of the best 2: the rank-Ks decomposition with the
    # coordinates exchanged.
    jd = exact_exp.jpdf_one_vs_rest_bestKs(4, 2, 1, GB)
    fine = exact_exp.FineLastHead(4, 2, GB)
    assert jd(1.7, 0.6) == pytest.approx(fine(0.6, 1.7), rel=1e-12)
    assert jd(0.6, 1.7) == 0.0


def test_best_ks_support_boundaries():
    jd = exact_exp.jpdf_one_vs_rest_bestKs(5, 4, 4, GB)
    assert jd.support(0.5, 2.0)
    assert not jd.support(0.5, 1.0)   # rest-sum below (Ks-1)*x
    assert jd(0.5, 1.0) == 0.0
    assert jd(-0.1, 2.0) == 0.0


def test_fine_last_head_mass():
    fine = exact_exp.FineLastHead(3, 2, GB)

    def inner(v):
        val, _ = integrate.quad(lambda w: fine(v, w), v, v + 50.0, limit=150)
        return val

    mass, _ = integrate.quad(inner, 0.0, 40.0, limit=150)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_fine_density_zero_outside_support():
    fine = exact_exp.FineHeadMidLast(6, 5, 2, GB)
    assert fine.support(3.0, 1.0, 1.5, 0.5)
    assert fine(3.0, 1.0, 1.5, 0.5) > 0.0
    assert not fine.support(0.5, 1.0, 1.5, 0.5)   # head below (m-1)*z2
    assert fine(0.5, 1.0, 1.5, 0.5) == 0.0
    assert fine(3.0, 1.0, 1.5, 1.2) == 0.0        # z4 above z2


def test_fine_supports_take_arrays():
    # Each support over arrays, element by element as the chained
    # comparisons that define it.
    rng = np.random.default_rng(5)
    cases = [
        (exact_exp.FineHeadTailLast(7, 6, 2, GB),
         lambda x, y, z4: (z4 >= 0 and 0 <= y - 4 * z4
                           and 2 * (y - 4 * z4) <= 3 * (x - 2 * z4))),
        (exact_exp.FineOneMidLast(6, 5, GB),
         lambda z1, z3, z4: 0 <= z4 <= z1 and 3 * z4 <= z3 <= 3 * z1),
        (exact_exp.FineHeadMidLast(7, 6, 2, GB),
         lambda z1, z2, z3, z4: (0 <= z4 <= z2 and z1 >= z2
                                 and 3 * z4 <= z3 <= 3 * z2)),
        (exact_exp.FineHeadNextLast(6, 5, GB),
         lambda z1, z2, z4: 0 <= z4 <= z2 and z1 >= 3 * z2),
        (exact_exp.FineLastHead(6, 4, GB),
         lambda v, w: v >= 0 and w >= 3 * v),
    ]
    for fine, spec in cases:
        z = rng.uniform(-0.3, 3.0, (len(fine.coords), 400))
        z[-1, :200] = rng.uniform(0.0, 0.3, 200)   # a small last coordinate
        got = fine.support(*z)
        assert got.shape == (400,)
        want = [spec(*p) for p in z.T.tolist()]
        assert got.tolist() == want and 20 < sum(want) < 380
        assert fine.support(*z.reshape(-1, 20, 20)).shape == (20, 20)


def test_density_meta():
    jd = exact_exp.jpdf_one_vs_rest_bestKs(5, 3, 2, GB)
    meta = jd.meta
    assert meta["K"] == 5 and meta["Ks"] == 3 and meta["m"] == 2
    assert meta["path"] == "exact"


def test_k_cap_enforced():
    with pytest.raises(DomainError):
        exact_exp.pdf_sum_all(exact_exp.K_CAP + 1, 1.0)
    with pytest.raises(DomainError):
        exact_exp.jpdf_one_vs_rest_allK(exact_exp.K_CAP + 1, 2, 1.0)


def test_shape_validation():
    with pytest.raises(DomainError):
        exact_exp.jpdf_one_vs_rest_allK(3, 4, 1.0)
    with pytest.raises(DomainError):
        exact_exp.jpdf_headsum_vs_tailsum_allK(3, 3, 1.0)
    with pytest.raises(DomainError):
        exact_exp.jpdf_one_vs_rest_bestKs(3, 4, 1, 1.0)
    with pytest.raises(DomainError):
        exact_exp.pdf_sum_all(2, -1.0)


def test_gsc_sum_grid_matches_points():
    # A grid is one row batch of the T4 rule; each row must give what a
    # single point does.
    for K, Ks in ((5, 3), (12, 7), (30, 30), (6, 1)):
        d = exact_exp.pdf_gsc_sum(K, Ks, 1.3)
        xs = np.linspace(-0.5, 2.0 * Ks + 4.0, 41)
        got = d.values(xs)
        assert got.shape == xs.shape
        want = np.array([d(float(x)) for x in xs])
        assert np.all(got[xs < 0] == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert d.values(xs.reshape(1, -1, 1)).shape == (1, xs.size, 1)


def test_one_vs_rest_nodes_match_points():
    # Arrays and single points are one code path: the same bits, and no
    # value below 0 anywhere at K=30.
    rng = np.random.default_rng(30)
    for m in (1, 2, 15, 29, 30):
        jd = exact_exp.jpdf_one_vs_rest_allK(30, m, 0.9)
        z1 = rng.uniform(0.0, 2.5, 300)
        z2 = rng.uniform(0.0, 40.0, 300)
        got = jd.values(z1, z2)
        want = np.array([jd(a, b) for a, b in zip(z1.tolist(), z2.tolist())])
        assert np.any(got != 0.0)
        assert np.array_equal(got, want)
        assert np.all(got >= 0.0)


def test_large_k_nonnegative_spot():
    # No cancellation is left to push a density below 0.
    jd = exact_exp.jpdf_one_vs_rest_allK(20, 10, 1.0)
    for z1 in (0.4, 1.0, 2.2):
        for z2 in (9.5, 12.0, 20.0, 31.0):
            assert jd(z1, z2) >= 0.0


# -- T2 against exact step sums --


def _exact_one_vs_rest(K, m, z1, z2):
    """Exact T2 at unit rate from a rational step sum, at the float inputs,
    with numpy's ``exp`` of the float sum, as the density forms it; and the
    distance of z2 from the nearest support edge."""
    a, b = Fraction(z1), Fraction(z2)
    steps = sum((-1) ** j * math.comb(K - m, j)
                * (b - (m - 1 + j) * a) ** (K - 2)
                for j in range(K - m + 1) if b >= (m - 1 + j) * a)
    pref = Fraction(math.factorial(K), math.factorial(K - m)
                    * math.factorial(m - 1) * math.factorial(K - 2))
    edges = [(m - 1) * a] + ([(K - 1) * a] if m == 1 else [])
    return (float(pref * steps) * np.exp(-(z1 + z2)),
            float(min(abs(b - e) for e in edges)))


def _one_vs_rest_points(rng, K, m):
    """Interior points, points 1e-6 to 1e-3 inside each support edge, and
    far tails, as the arrays (z1, z2)."""
    z1 = rng.uniform(0.05, 3.0, 6)
    top = K - 1 if m == 1 else K + 3        # past the last knot for m > 1
    pts = [(a, (m - 1 + rng.uniform(0.0, top - m + 1)) * a) for a in z1]
    near = 10.0 ** rng.uniform(-6.0, -3.0, 4)
    pts += [(a, (m - 1) * a + d) for a, d in zip(z1[:2], near[:2])]
    if m == 1:
        pts += [(a, (K - 1) * a - d) for a, d in zip(z1[2:4], near[2:])]
        pts += [(60.0, 40.0), (150.0, 120.0)]
    else:
        pts += [(1.0, 300.0), (2.0, 600.0)]
    return np.array(pts).T


def test_one_vs_rest_matches_exact_step_sums():
    # Every K and m: the error stays within the conditioning of the
    # distance from the nearest support edge plus a few roundings per
    # level of the kernel.
    EPS = np.finfo(float).eps
    rng = np.random.default_rng(2)
    checked = 0
    for K in range(2, exact_exp.K_CAP + 1):
        for m in range(1, K + 1):
            z1, z2 = _one_vs_rest_points(rng, K, m)
            got = exact_exp.OneVsRestAllK(K, m, 1.0).values(z1, z2)
            for g, a, b in zip(got.tolist(), z1.tolist(), z2.tolist()):
                want, delta = _exact_one_vs_rest(K, m, a, b)
                assert g >= 0.0
                if want < 1e-290:
                    continue
                bound = 8 * EPS * ((K - 2) * b / delta + K * K)
                assert abs(g - want) <= bound * want, (K, m, a, b, g, want)
                checked += 1
    assert checked > 4000


@pytest.mark.filterwarnings("error")
def test_one_vs_rest_tiny_rank_values():
    # Tiny z1 and z2 up to 1e3: finite, nonnegative, and no warning; the
    # polynomial past the last knot never forms (z2 - (m-1) z1) / z1.
    for m in range(1, 31):
        jd = exact_exp.OneVsRestAllK(30, m, 1.0)
        z1 = np.array([1e-300, 1e-20, 1e-300, 1e-20, 1e-5, 1e-300])
        z2 = np.array([5.0, 5.0, 1e3, 1e3, 1e3, 1e-290])
        got = jd.values(z1, z2)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    # Where every term beyond the first carries z1^(K-m) or more, the
    # density is below the smallest double.
    assert exact_exp.OneVsRestAllK(30, 2, 1.0)(1e-20, 5.0) == 0.0
    assert exact_exp.OneVsRestAllK(30, 30, 1.0)(1e-300, 5.0) > 0.0


# -- step-sum densities against exact step sums --


def _exact_steps(n, p, u, thresholds):
    """``sum_j (-1)^j C(n, j) (u - t_j)_+^p`` in rationals, at the float
    inputs, and the distance of u from the nearest edge where the sum
    vanishes: ``t_0``, and ``t_n`` too for p = n - 1."""
    u, thr = Fraction(u), [Fraction(t) for t in thresholds]
    edges = thr[:1] if p >= n else [thr[0], thr[-1]]
    return (sum((-1) ** j * math.comb(n, j) * (u - t) ** p
                for j, t in enumerate(thr) if u >= t),
            min(abs(u - e) for e in edges))


def _exact_one_mid_last(d, z1, z3, z4):
    n = d.Ks - 2
    factor = (d._pref * d._cdf_pows(z4) * np.exp(-(z1 + z3 + z4)))
    thr = [(n - j) * Fraction(z4) + j * Fraction(z1) for j in range(n + 1)]
    return factor, n, n - 1, z3, thr, n * (z1 + z4)


def _exact_head_mid_last(d, z1, z2, z3, z4):
    n = d.Ks - d.m - 1
    factor = (d._pref * d._cdf_pows(z4) * (z1 - (d.m - 1) * z2) ** (d.m - 2)
              * np.exp(-(z1 + z2 + z3 + z4)))
    thr = [(n - j) * Fraction(z4) + j * Fraction(z2) for j in range(n + 1)]
    return factor, n, n - 1, z3, thr, n * (z2 + z4)


def _exact_rank_rest_last(d, x, w, z4):
    # T2's step sum of the best Ks-1 above z4: threshold j is
    # (m-1+j) x + (n-j) z4.
    n, a = d.Ks - d.m - 1, d.m - 1
    factor = d._pref * d._cdf_pows(z4) * np.exp(-(x + w + z4))
    thr = [(a + j) * Fraction(x) + (n - j) * Fraction(z4)
           for j in range(n + 1)]
    return factor, n, d.Ks - 3, w, thr, (d.Ks - 2) * (x + z4)


def _step_sum_cases(K):
    # (density, its exact parts, coordinates drawn near its support).
    def between(rng, lo, hi):
        return lo + rng.random(lo.shape) * (hi - lo)

    def one_mid_last(rng, n, d):
        z1 = rng.uniform(0.0, 2.0, n)
        z4 = rng.uniform(0.0, 1.05, n) * z1
        return (z1, between(rng, (d.Ks - 2) * z4 - 0.1,
                            (d.Ks - 2) * z1 + 0.1), z4)

    def head_mid_last(rng, n, d):
        nm = d.Ks - d.m - 1
        z2 = rng.uniform(0.0, 2.0, n)
        z4 = rng.uniform(0.0, 1.05, n) * z2
        return ((d.m - 1) * z2 + rng.uniform(-0.1, 2.0, n), z2,
                between(rng, nm * z4 - 0.1, nm * z2 + 0.1), z4)

    def rank_rest_last(rng, n, d):
        # Past the last knot, (Ks-2) x, the step sum is one polynomial.
        x = rng.uniform(0.0, 2.0, n)
        z4 = rng.uniform(0.0, 1.05, n) * x
        lo = (d.m - 1) * x + (d.Ks - d.m - 1) * z4
        return x, between(rng, lo - 0.1, (d.Ks - 2) * x + 1.0), z4

    for Ks in sorted({3, K - 1, K}):
        yield (exact_exp.FineOneMidLast(K, Ks, 1.3), _exact_one_mid_last,
               one_mid_last)
    for Ks, m in sorted({(4, 2), (K, 2), (K, K // 2), (K, K - 2)}):
        yield (exact_exp.FineHeadMidLast(K, Ks, m, 1.3), _exact_head_mid_last,
               head_mid_last)
    for Ks, m in sorted({(4, 2), (K, 2), (K - 1, K // 2), (K, K - 2)}):
        yield (exact_exp.FineRankRestLast(K, Ks, m, 1.3),
               _exact_rank_rest_last, rank_rest_last)


@pytest.mark.parametrize("K", [5, 10, 30])
def test_step_sum_densities_match_exact_step_sums(K):
    # Each value within the conditioning of the distance from the nearest
    # support edge plus a few roundings per degree, and none below 0.
    # Every mix of arrays, 2-d arrays, grids that broadcast and Python
    # floats is one code path, with the same bits.
    EPS = np.finfo(float).eps
    rng = np.random.default_rng(K)
    for d, exact, draw in _step_sum_cases(K):
        z = draw(rng, 240, d)
        got = d.values(*z)
        assert np.all(got >= 0.0)
        inside = np.asarray(d.support(*z))
        assert np.count_nonzero(got) > 60 and np.all(got[~inside] == 0.0)
        checked = 0
        for g, point in zip(got.tolist(), zip(*(c.tolist() for c in z))):
            # The density is gamma_bar^-dim times the unit-mean one at
            # point / gamma_bar.
            gb = d.gamma_bar
            factor, n, p, u, thr, scale = exact(d, *(c / gb for c in point))
            steps, delta = _exact_steps(n, p, u, thr)
            want = float(factor * float(steps)) / gb ** len(point)
            if (not d.support(*point) or want < 1e-290
                    or delta <= 16 * EPS * (u + scale)):
                continue
            bound = 8 * EPS * (p * (u + scale) / float(delta)
                               + (n + 1) ** 2)
            assert abs(g - want) <= bound * want, (d.coords, point, g, want)
            checked += 1
        assert checked > 40
        assert np.array_equal(d.values(*(c.reshape(12, 20) for c in z)),
                              got.reshape(12, 20))
        grid = [c[:16].reshape((16, 1) if i % 2 else (1, 16))
                for i, c in enumerate(z)]
        assert np.array_equal(
            d.values(*grid),
            d.values(*(c.ravel() for c in np.broadcast_arrays(*grid)))
            .reshape(16, 16))
        # One coordinate a Python float, as the inner rows of T3, T5 and
        # T6 pass a point's coordinates, and single points: every power
        # is numpy's array ``pow``, so a point equals its row.
        for i in range(len(z)):
            for k in (3, 50):
                mixed = [float(c[k]) if j == i else c
                         for j, c in enumerate(z)]
                full = [np.full(240, c) if j == i else c
                        for j, c in enumerate(mixed)]
                assert np.array_equal(d.values(*mixed), d.values(*full))
        for k in range(0, 240, 16):
            one = d.values(*(float(c[k]) for c in z))
            assert np.ndim(one) == 0
            assert one == got[k]


# -- T3 and FineHeadTailLast against exact integrals --


def _head_tail_integral(N, m, h, t):
    """The T3 density of N unit exponentials at (h, t), 2 <= m <= N-1,
    divided by exp(-(h + t)): ``FineHeadRankTail`` of the exponential,
    ``(h - m g)^(m-2) sum_j (-1)^j C(n, j) (t - j g)_+^(n-1)`` times its
    factor, integrated over the rank-m value g by exact antiderivatives.
    Exact for ``Fraction`` inputs; for ``mpf`` inputs at the working
    precision, which must cover the cancellation of the alternating sum.
    Shares no code with ``_backend``'s table.
    """
    n, a, b = N - m, m - 2, N - m - 1
    one = h * 0 + 1
    if not (t >= 0 and m * t <= n * h):
        return h * 0
    lo, hi = t / n, h / m
    # j = 0; for j >= 1, h - m g = c0 + (m/j) (t - j g).
    total = t ** b * ((h - m * lo) ** (a + 1)
                      - (h - m * hi) ** (a + 1)) / (m * (a + 1))
    for j in range(1, n + 1):
        up = min(hi, t / j)
        if up <= lo:
            continue
        c0, r = h - m * t / j, one * m / j
        blo, bup = t - j * lo, t - j * up
        part = sum(math.comb(a, c) * c0 ** (a - c) * r ** c
                   * (blo ** (b + c + 1) - bup ** (b + c + 1))
                   / (j * (b + c + 1)) for c in range(a + 1))
        total += (-1) ** j * math.comb(n, j) * part
    return (one * math.factorial(N) * total
            / (math.factorial(n) * math.factorial(m - 1)
               * math.factorial(m - 2) * math.factorial(n - 1)))


def _cone_points(K, m):
    """Head and tail sums (h, t) with m t / h at the middle and 1e-9 from
    either edge of every cone, 1e-7 from t = 0 and 1e-3 and 1e-6 from the
    support's far edge, at two head sums."""
    n = K - m
    q = [1e-7, n - 1e-3, n - 1e-6]
    for k in range(n):
        q += [k + 0.5, k + 1e-9, k + 1 - 1e-9]
    q = np.array([v for v in q if 0 < v < n])
    head = sum(_mean_rank(K, i) for i in range(1, m + 1))
    h = np.repeat([head, 2.5 * head], q.size)
    return h, np.tile(q, 2) * h / m


@pytest.mark.parametrize("K", [5, 10, 20, 30])
def test_t3_in_every_cone_matches_exact_integrals(K):
    # Exact rational integrals at the float inputs, times a 40-digit
    # exp(-(h + t)).  At least a quarter of the support from its far edge
    # the error is below 1e-13; nearer, where the density vanishes like
    # (n h - m t)^(K-2), within the conditioning of that distance.  A
    # value below 1e-290 has no relative accuracy.
    EPS = np.finfo(float).eps
    checked = 0
    for m in sorted({2, 3, K // 2, K - 1}):
        n, d = K - m, K - 2
        h, t = _cone_points(K, m)
        got = exact_exp.HeadTailAllK(K, m, GB).values(h, t)
        assert np.all(got >= 0.0)
        with mpmath.workdps(40):
            for g, a, b in zip(got.tolist(), h.tolist(), t.tolist()):
                exact = _head_tail_integral(K, m, Fraction(a), Fraction(b))
                want = float(mpmath.exp(-(mpmath.mpf(a) + b))
                             * exact.numerator / exact.denominator)
                if want < 1e-290:
                    continue
                delta = float(n * Fraction(a) - m * Fraction(b))
                if delta >= n * a / 4:
                    bound = 1e-13
                else:
                    bound = 8 * EPS * (d * n * a / delta + (d + 1) ** 2
                                       + a + b)
                assert abs(g - want) <= bound * want, (K, m, a, b, g, want)
                checked += 1
    assert checked > 6 * K


@pytest.mark.parametrize("K", [10, 30])
def test_head_tail_densities_take_arrays(K):
    # HeadTailAllK and FineHeadTailLast against exact integrals at random
    # points near their supports, 0 outside, and every mix of arrays,
    # grids that broadcast and Python floats with the same bits.
    EPS = np.finfo(float).eps
    rng = np.random.default_rng(K)
    Ks, m = K - 2, K // 3
    t3 = exact_exp.HeadTailAllK(K, m, 1.3)
    fine = exact_exp.FineHeadTailLast(K, Ks, m, 1.3)
    h = rng.uniform(0.0, 2.0 * m, 240)
    t3_pts = (h, rng.uniform(-0.05, 1.05, 240) * (K - m) * h / m)
    z4 = rng.uniform(-0.05, 1.0, 240)
    fine_pts = (h + m * z4,
                rng.uniform(-0.05, 1.05, 240) * (Ks - 1 - m) * h / m
                + (Ks - m) * z4, z4)

    def t3_exact(x, y):
        return (Fraction(1), K, x, y)

    def fine_exact(x, y, z4):
        return ((Fraction(math.factorial(K), math.factorial(K - Ks)
                          * math.factorial(Ks - 1))
                 * Fraction(-np.expm1(-z4)) ** (K - Ks)),
                Ks - 1, x - m * z4, y - (Ks - m) * z4)

    for d, z, exact in ((t3, t3_pts, t3_exact), (fine, fine_pts, fine_exact)):
        got = d.values(*z)
        inside = np.asarray(d.support(*z))
        assert 60 < np.count_nonzero(got) and np.all(got[~inside] == 0.0)
        assert np.all(got >= 0.0)
        for g, point in zip(got[inside][:40].tolist(),
                            zip(*(c[inside][:40].tolist() for c in z))):
            unit = [c / 1.3 for c in point]
            factor, N, a, b = exact(*unit)
            a, b = Fraction(a), Fraction(b)
            want = (float(factor * _head_tail_integral(N, m, a, b))
                    * np.exp(-(unit[0] + unit[1])) / 1.3 ** len(point))
            delta = float((N - m) * a - m * b)
            if want < 1e-290 or delta <= 0:
                continue
            bound = 8 * EPS * (N * N * float(a) / delta + N * N + 60)
            assert abs(g - want) <= bound * want, (point, g, want)
        assert np.array_equal(d.values(*(c.reshape(12, 20) for c in z)),
                              got.reshape(12, 20))
        grid = [c[:16].reshape((16, 1) if i % 2 else (1, 16))
                for i, c in enumerate(z)]
        assert np.array_equal(
            d.values(*grid),
            d.values(*(c.ravel() for c in np.broadcast_arrays(*grid)))
            .reshape(16, 16))
        for k in range(0, 240, 16):
            one = d.values(*(float(c[k]) for c in z))
            assert np.ndim(one) == 0 and one == got[k]


# -- reductions against arbitrary precision and against marginals --


def _mean_rank(K, i):
    # Mean of the i-th largest of K unit exponentials.
    return sum(1.0 / k for k in range(i, K + 1))


def _mp_steps(n, power, u, thresholds):
    # sum_j (-1)^j C(n, j) (u - t_j)^power over t_j <= u, in mpmath.
    return mpmath.fsum((-1) ** j * math.comb(n, j) * (u - t) ** power
                       for j, t in enumerate(thresholds) if u >= t)


def _mp_quad(f, lo, hi, knots=(), method="tanh-sinh"):
    pts = sorted({lo, hi, *(p for p in knots if lo < p < hi)})
    return mpmath.quad(f, pts, method=method) if hi > lo else mpmath.mpf(0)


def _mp_fact(*ns):
    return [mpmath.factorial(n) for n in ns]


def _mp_head_tail(K, m, z1, z2):
    z1, z2 = mpmath.mpf(z1), mpmath.mpf(z2)
    kf, a, b, c, d = _mp_fact(K, K - m, m - 1, m - 2, K - m - 1)
    slopes = range(K - m + 1)

    def f(g):
        return ((z1 - m * g) ** (m - 2)
                * _mp_steps(K - m, K - m - 1, z2, [j * g for j in slopes]))

    # A polynomial between knots.
    val = _mp_quad(f, z2 / (K - m), z1 / m,
                   [z2 / j for j in range(1, K - m + 1)],
                   method="gauss-legendre")
    return kf / (a * b * c * d) * mpmath.exp(-(z1 + z2)) * val


def _mp_fine_pref(K, Ks):
    kf, a, b, c = _mp_fact(K, K - Ks, Ks - 2, Ks - 3)
    return kf / (a * b * c)


def _mp_one_vs_rest_case_a(K, Ks, x, y):
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    pref = _mp_fine_pref(K, Ks)

    def f(z4):
        z3 = y - z4
        thr = [(Ks - 2 - j) * z4 + j * x for j in range(Ks - 1)]
        return ((1 - mpmath.exp(-z4)) ** (K - Ks) * mpmath.exp(-(x + y))
                * _mp_steps(Ks - 2, Ks - 3, z3, thr))

    knots = [(y - j * x) / (Ks - 1 - j) for j in range(1, Ks - 1)] + [x]
    return pref * _mp_quad(f, max(mpmath.mpf(0), y - (Ks - 2) * x),
                           y / (Ks - 1), knots)


def _mp_one_vs_rest_case_c(K, Ks, x, y):
    x, y = mpmath.mpf(x), mpmath.mpf(y)

    def f(z4):
        return ((1 - mpmath.exp(-z4)) ** (K - Ks)
                * (y - z4 - (Ks - 2) * x) ** (Ks - 3))

    return (_mp_fine_pref(K, Ks) * mpmath.exp(-(x + y))
            * _mp_quad(f, mpmath.mpf(0), min(x, y - (Ks - 2) * x)))


def _typical(K, head, rest):
    # The mean point and one displaced from it.
    x = sum(_mean_rank(K, i) for i in head)
    y = sum(_mean_rank(K, i) for i in rest)
    return [(x, y), (0.85 * x, 1.1 * y)]


def _exact_head_tail(K, m, x, y):
    # T3 by exact rational integrals at the float inputs, times an exp at
    # the working precision.
    exact = _head_tail_integral(K, m, Fraction(x), Fraction(y))
    return (mpmath.exp(-(mpmath.mpf(x) + y))
            * exact.numerator / exact.denominator)


@pytest.mark.parametrize("K", [5, 10, 20, 30])
def test_reductions_match_arbitrary_precision(K):
    # T3 is one formula and meets 1e-13; T5a and T5c run a rule at the
    # reductions' 1e-8 target.  The T3 reference is a 40-digit quadrature
    # up to K = 10 and exact rational integrals above, where that
    # quadrature takes seconds a point.
    Ks = max(4, K - 3)
    t3_ref = _mp_head_tail if K <= 10 else _exact_head_tail
    cases = []
    for m in (2, 3):
        for pt in _typical(K, range(1, m + 1), range(m + 1, K + 1)):
            cases.append((exact_exp.jpdf_headsum_vs_tailsum_allK(K, m, GB), pt,
                          lambda x, y, m=m: t3_ref(K, m, x, y), 1e-13))
    for pt in _typical(K, [1], range(2, Ks + 1)):
        cases.append((exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, 1, GB), pt,
                      lambda x, y: _mp_one_vs_rest_case_a(K, Ks, x, y), 1e-8))
    for pt in _typical(K, [Ks - 1], [*range(1, Ks - 1), Ks]):
        cases.append((exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, Ks - 1, GB), pt,
                      lambda x, y: _mp_one_vs_rest_case_c(K, Ks, x, y), 1e-8))
    with mpmath.workdps(40):
        for jd, (x, y), ref, rel in cases:
            want = float(ref(x, y))
            assert want >= 1e-6
            assert jd(x, y) == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("K,m,x,y", [(10, 2, 1.24507, 4.79247),
                                     (20, 3, 1.85289, 9.14585)])
def test_t3_tails_match_arbitrary_precision(K, m, x, y):
    # Far from the mean point, where an alternating step sum would cancel
    # to noise: 1.0e-12 and 2.2e-17.  The weights of T3 are nonnegative.
    with mpmath.workdps(40):
        want = float(_mp_head_tail(K, m, x, y))
    got = exact_exp.jpdf_headsum_vs_tailsum_allK(K, m, GB)(x, y)
    assert got == pytest.approx(want, rel=1e-13)


def _mp_head_mid_last(K, Ks, m):
    # FineHeadMidLast at rate 1: (head sum z1, rank m z2, mid sum z3,
    # rank Ks z4), with the Ks-m-1 mid ranks between z4 and z2.
    nmid = Ks - m - 1
    kf, *den = _mp_fact(K, K - Ks, m - 1, nmid, m - 2, nmid - 1)
    pref = kf / math.prod(den)

    def f(z1, z2, z3, z4):
        thr = [(nmid - j) * z4 + j * z2 for j in range(nmid + 1)]
        return (pref * (1 - mpmath.exp(-z4)) ** (K - Ks)
                * (z1 - (m - 1) * z2) ** (m - 2)
                * mpmath.exp(-(z1 + z2 + z3 + z4))
                * _mp_steps(nmid, nmid - 1, z3, thr))

    return f


def _mp_nested(fine, outer, inner):
    # Gauss-Legendre at every level: between knots the inner integrands
    # are polynomials times exp, and mpmath's degree doubling stops at
    # the working precision.
    def quad(f, lims):
        return _mp_quad(f, *lims, method="gauss-legendre")

    return quad(lambda z4: quad(lambda u: fine(u, z4), inner(z4)), outer)


def _mp_best_ks_rank_vs_rest(K, Ks, m, x, y):
    # Case b: z1 and z4 integrated out, z3 = y - z1 - z4.
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    f, nm = _mp_head_mid_last(K, Ks, m), Ks - m
    outer = (mpmath.mpf(0), min(x, (y - (m - 1) * x) / nm),
             [(y - (m + j - 1) * x) / (nm - j) for j in range(1, nm)]
             + [y - (Ks - 2) * x])

    def inner(z4):
        return (max((m - 1) * x, y - z4 - (nm - 1) * x), y - nm * z4,
                [y - (nm - j) * z4 - j * x for j in range(1, nm)])

    return _mp_nested(lambda z1, z4: f(z1, x, y - z1 - z4, z4), outer, inner)


def _mp_best_ks_head_tail(K, Ks, m, x, y):
    # z2 and z4 integrated out, z1 = x - z2 and z3 = y - z4.
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    f, nt = _mp_head_mid_last(K, Ks, m), Ks - m
    outer = (max(mpmath.mpf(0), y - (nt - 1) * x / m), y / nt,
             [(y - j * x / m) / (nt - j) for j in range(1, nt)])

    def inner(z4):
        return ((y - z4) / (nt - 1), x / m,
                [(y - (nt - j) * z4) / j for j in range(1, nt)])

    return _mp_nested(lambda z2, z4: f(x - z2, z2, y - z4, z4), outer, inner)


def test_nested_reductions_match_arbitrary_precision():
    # T6 integrates two coordinates out, the inner rule batched over the
    # outer nodes, and T5b one, over the rank-Ks value of FineRankRestLast;
    # 20-digit nested quadrature over FineHeadMidLast as reference.
    K, Ks = 8, 6
    cases = []
    for m in (2, 3):
        rest = [i for i in range(1, Ks + 1) if i != m]
        for pt in _typical(K, [m], rest):
            cases.append((exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, m, GB), pt,
                          functools.partial(_mp_best_ks_rank_vs_rest,
                                            K, Ks, m)))
    for m in (2, 3, 4):
        for pt in _typical(K, range(1, m + 1), range(m + 1, Ks + 1)):
            cases.append((exact_exp.jpdf_headsum_vs_tailsum_bestKs(
                K, Ks, m, GB), pt,
                functools.partial(_mp_best_ks_head_tail, K, Ks, m)))
    with mpmath.workdps(20):
        for jd, (x, y), ref in cases:
            want = float(ref(x, y))
            assert want >= 1e-3
            assert jd(x, y) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("K,Ks,ms", [(8, 6, (2, 3, 4)), (8, 8, (2, 5)),
                                     (30, 27, (3, 13)), (30, 29, (5, 27))])
def test_rank_rest_last_is_head_mid_last_over_the_head(K, Ks, ms):
    # FineRankRestLast(x, w, z4) is FineHeadMidLast(z1, x, w - z1, z4)
    # integrated over the head sum z1: 30-digit Gauss-Legendre between the
    # knots of the mid step sum, where the integrand is a polynomial.
    with mpmath.workdps(30):
        for m in ms:
            n, f = Ks - m - 1, _mp_head_mid_last(K, Ks, m)
            fine = exact_exp.FineRankRestLast(K, Ks, m, GB)
            x, z4 = _mean_rank(K, m), _mean_rank(K, Ks)
            w = sum(_mean_rank(K, i) for i in range(1, Ks)) - x
            for x, w, z4 in ((x, w, z4), (0.8 * x, 1.1 * w, 0.5 * z4),
                             (1.3 * x, 0.9 * w, 0.9 * z4)):
                mx, mw, mz = map(mpmath.mpf, (x, w, z4))
                want = float(_mp_quad(
                    lambda z1: f(z1, mx, mw - z1, mz),
                    max((m - 1) * mx, mw - n * mx), mw - n * mz,
                    [mw - (n - j) * mz - j * mx for j in range(1, n)],
                    method="gauss-legendre"))
                assert want >= 1e-6
                assert fine(x, w, z4) == pytest.approx(want, rel=1e-13)


def _mp_best_ks_head_tail_one(K, Ks, m, x, y):
    # FineHeadTailLast integrated over the rank-Ks value z4 by 40-digit
    # mpmath.quad between the cone crossings, its T3 factor by exact
    # antiderivatives at 80 digits (against 200-digit sums, the
    # alternating sum loses at most 4 digits at these points).
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    nt = Ks - m
    kf, a, b = _mp_fact(K, K - Ks, Ks - 1)

    def f(z4):
        with mpmath.workdps(80):
            v = _head_tail_integral(Ks - 1, m, x - m * z4, y - nt * z4)
        return (1 - mpmath.exp(-z4)) ** (K - Ks) * v

    val = _mp_quad(f, max(mpmath.mpf(0), y - (nt - 1) * x / m), y / nt,
                   [(y - j * x / m) / (nt - j) for j in range(1, nt)],
                   method="gauss-legendre")
    return kf / (a * b) * mpmath.exp(-(x + y)) * val


@pytest.mark.parametrize("Ks", [20, 27, 29])
def test_t6_matches_arbitrary_precision(Ks):
    # T6 at K = 30, the rows of one rule over the rank-Ks value: the mean
    # point and two displaced from it.
    K = 30
    with mpmath.workdps(40):
        for m in (2, 3, Ks - 2):
            jd = exact_exp.jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, GB)
            x, y = _typical(K, range(1, m + 1), range(m + 1, Ks + 1))[0]
            pts = [(x, y), (0.85 * x, 1.1 * y), (1.4 * x, 0.7 * y)]
            got = jd.values(*np.array(pts).T)
            for g, (x, y) in zip(got.tolist(), pts):
                want = float(_mp_best_ks_head_tail_one(K, Ks, m, x, y))
                assert want >= 1e-8
                assert g == pytest.approx(want, rel=1e-13), (m, x, y)


def _y_integral(jd, x, lo, hi, knots):
    val, _ = integrate.quad(lambda y: jd(x, y), lo, hi,
                            points=[p for p in knots if lo < p < hi],
                            epsabs=1e-11, epsrel=1e-9, limit=150)
    return val


@pytest.mark.parametrize("m", [2, 4])
def test_best_ks_rank_vs_rest_marginal_k10(m):
    # Integrating out the rest-sum leaves the rank-m marginal.
    K, Ks = 10, 7
    jd = exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, m, GB)
    assert jd.case == "b"
    for x in (0.5, 1.2):
        lo = (m - 1) * x
        knots = [(m - 1 + j) * x for j in range(1, Ks - m + 1)]
        got = _y_integral(jd, x, lo, lo + 35.0, knots)
        assert got == pytest.approx(rank_marginal(K, m, x), rel=1e-6)


@pytest.mark.parametrize("m", [2, 4])
def test_best_ks_head_tail_marginal_k10(m):
    # Integrating out the tail sum leaves the sum of the m largest.
    K, Ks = 10, 7
    jd = exact_exp.jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, GB)
    gsc = exact_exp.pdf_gsc_sum(K, m, GB)
    for x in (0.8 * m, 1.8 * m):
        hi = (Ks - m) * x / m
        got = _y_integral(jd, x, 0.0, hi, [j * x / m for j in range(1, Ks - m)])
        assert got == pytest.approx(gsc(x), rel=1e-6)


def test_gauss_rule_exact_on_polynomials():
    # Degree 9 between knots: the 5-node rule per segment is exact.
    f = lambda x, _: np.where(x < 0.3, x ** 9, 2.0 * x ** 9 - x ** 4)
    want = 0.3 ** 10 / 10 + 2 * (1 - 0.3 ** 10) / 10 - (1 - 0.3 ** 5) / 5
    got = rules._gauss_knots(f, 0.0, 1.0, [0.3], deg=9)
    assert got == pytest.approx(want, rel=1e-14)
    assert rules._gauss_knots(f, 1.0, 1.0, deg=9) == 0.0


def test_gauss_rule_converges_on_smooth_factor():
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        got = rules._gauss_knots(lambda x, _: x ** 6 * np.exp(-3.0 * x),
                                 0.0, 2.5, [1.0], deg=6, exact=False)
    want, _ = integrate.quad(lambda x: x ** 6 * math.exp(-3.0 * x), 0.0, 2.5,
                             epsabs=0.0, epsrel=1e-13)
    assert got == pytest.approx(want, rel=1e-10)


def test_gauss_rule_warns_at_its_cap():
    with pytest.warns(IntegrationWarning, match="did not converge"):
        val = rules._gauss_knots(lambda x, _: np.abs(np.sin(200.0 * x)),
                                 0.0, 1.0, deg=0, exact=False)
    assert val == pytest.approx(2.0 / math.pi, abs=1e-2)
