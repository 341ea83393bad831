"""Quadrature + transform-inversion evaluators against closed exponential
forms and elementary convolution facts."""

import math

import pytest
from scipy import integrate

from ordstat import exact_exp, generic_joint as gj
from ordstat.distributions import CustomDistribution, Exponential, HalfNormal
from ordstat.errors import DomainError
from ordstat.partition import Partition, TheoremMatch, match_theorem

EXP = Exponential(1.0)
HN = HalfNormal(0.8)


def uniform01():
    return CustomDistribution(
        pdf=lambda x: 1.0 if 0.0 <= x <= 1.0 else 0.0,
        cdf=lambda x: min(max(x, 0.0), 1.0),
        mean=0.5, abscissa=math.inf, support_upper=1.0, name="uniform01")


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
def test_t1_single_variable_is_pdf(dist):
    for z in (0.2, 0.9, 2.5):
        assert gj.t1_pdf(dist, 1, z) == pytest.approx(dist.pdf1(z),
                                                      rel=1e-12)


def test_t1_matches_erlang():
    erl = exact_exp.pdf_sum_all(3, 1.0)
    for z in (0.7, 2.1, 6.3):
        assert gj.t1_pdf(EXP, 3, z) == pytest.approx(erl(z), rel=2e-6)


def test_t1_uniform_sum_is_triangle():
    d = uniform01()
    for z, want in [(0.4, 0.4), (0.9, 0.9), (1.3, 0.7), (1.9, 0.1)]:
        assert gj.t1_pdf(d, 2, z) == pytest.approx(want, rel=5e-6)
    assert gj.t1_pdf(d, 2, 2.4) == pytest.approx(0.0, abs=1e-7)


# c(g) = mu(0, g) and e(g) = mu(g, inf): one power inverse, three limit pairs.
POWERS = ([("c", 0.0, 1.1, n) for n in (1, 2, 3, 4)]
          + [("e", 0.9, math.inf, n) for n in (1, 2, 3)]
          + [("mu", 0.4, 1.3, n) for n in (1, 2, 3, 4)])


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
@pytest.mark.parametrize("kind,lo,hi,n", POWERS,
                         ids=[f"{p[0]}{p[3]}" for p in POWERS])
def test_power_inverse_mass(kind, lo, hi, n, dist):
    # The inverse is only C^(n-2) on its lattice; hand quad the knots.
    knots = [k for k in gj._lattice(lo, hi, n) if math.isfinite(k)]
    mass, _ = integrate.quad(lambda t: gj._inv_pow(dist, lo, hi, n, t),
                             n * lo, n * hi, points=knots or None,
                             epsabs=1e-12, epsrel=1e-10, limit=200)
    assert mass == pytest.approx(dist.kernel_mu(lo, hi, 0.0) ** n, rel=1e-8)


@pytest.mark.parametrize("m,pt", [(1, (1.0, 1.5)), (2, (0.8, 2.0)),
                                  (4, (0.4, 2.0))])
def test_t2_matches_exact(m, pt):
    K = 4
    z1, z2 = pt
    want = exact_exp.jpdf_one_vs_rest_allK(K, m, 1.0)(z1, z2)
    assert want > 0.0
    assert gj.t2_jpdf(EXP, K, m, z1, z2) == pytest.approx(want, rel=1e-6)


def test_t3_matches_exact():
    K, m = 5, 2
    want = exact_exp.jpdf_headsum_vs_tailsum_allK(K, m, 1.0)(3.0, 1.2)
    assert want > 0.0
    assert gj.t3_jpdf(EXP, K, m, 3.0, 1.2) == pytest.approx(want, rel=1e-6)


def test_t4_matches_exact():
    want = exact_exp.pdf_gsc_sum(5, 3, 1.0)(2.0)
    assert gj.t4_pdf(EXP, 5, 3, 2.0) == pytest.approx(want, rel=1e-6)


def test_t4_full_selection_equals_t1():
    # Two independent routes (reduction quadrature vs transform inversion),
    # each good to roughly eight digits.
    assert gj.t4_pdf(EXP, 3, 3, 1.8) == pytest.approx(
        gj.t1_pdf(EXP, 3, 1.8), rel=1e-6)


def test_t4_best1_is_max_density_any_dist():
    K, x = 4, 1.1
    want = K * HN.pdf1(x) * HN.cdf1(x) ** (K - 1)
    assert gj.t4_pdf(HN, K, 1, x) == pytest.approx(want, rel=1e-9)


T5_POINTS = {
    (5, 4, 1): (1.0, 2.0),
    (6, 5, 3): (0.5, 2.0),
    (5, 4, 3): (0.6, 2.2),
    (5, 4, 4): (0.5, 2.0),
    (4, 2, 1): (1.7, 0.6),
}


@pytest.mark.parametrize("shape", sorted(T5_POINTS))
def test_t5_matches_exact(shape):
    K, Ks, m = shape
    x, y = T5_POINTS[shape]
    want = exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, m, 1.0)(x, y)
    assert want > 0.0
    assert gj.t5_jpdf(EXP, K, Ks, m, x, y) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("m,pt", [(2, (2.6, 1.1)), (3, (4.0, 0.9))])
def test_t6_matches_exact(m, pt):
    K, Ks = 6, 4
    x, y = pt
    want = exact_exp.jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, 1.0)(x, y)
    assert want > 0.0
    assert gj.t6_jpdf(EXP, K, Ks, m, x, y) == pytest.approx(want, rel=1e-6)


def test_t6_singleton_head_equals_t5():
    assert gj.t6_jpdf(EXP, 5, 4, 1, 0.9, 1.8) == pytest.approx(
        gj.t5_jpdf(EXP, 5, 4, 1, 0.9, 1.8), rel=1e-9)


def test_outside_support_is_zero():
    assert gj.t2_jpdf(EXP, 4, 2, 0.8, 0.5) == 0.0      # rest below (m-1)*z1
    assert gj.t3_jpdf(EXP, 5, 2, 1.0, 3.0) == 0.0      # tail above head bound
    assert gj.t5_jpdf(EXP, 5, 4, 4, 0.5, 1.0) == 0.0
    assert gj.t1_pdf(EXP, 3, -0.2) == 0.0
    # A power inverse vanishes off [n*lo, n*hi] without integrating.
    assert gj._inv_pow(EXP, 0.0, 1.1, 1, 1.2) == 0.0
    assert gj._inv_pow(EXP, 0.4, 1.3, 3, 4.0) == 0.0
    assert gj._inv_pow(EXP, 0.9, math.inf, 2, 1.7) == 0.0


def test_theorem_case_dispatch_and_swap():
    shape = match_theorem(Partition.parse("K=4;Ks=4;groups=[2-4][1]"))
    assert shape.id == "T2" and shape.m == 1 and shape.swap
    case, dim = gj.resolve(shape, EXP, method="generic")
    assert dim == 2
    assert case(1.5, 1.0) == pytest.approx(
        gj.t2_jpdf(EXP, 4, 1, 1.0, 1.5), rel=1e-12)

    total, dim = gj.resolve(
        match_theorem(Partition.parse("K=3;Ks=3;groups=[1-3]")), EXP,
        method="generic")
    assert dim == 1
    assert total(1.8) == pytest.approx(gj.t1_pdf(EXP, 3, 1.8), rel=1e-12)


def test_theorem_case_arity_checked():
    case, _ = gj.resolve(TheoremMatch("T2", 4, 4, 2), EXP)
    with pytest.raises(DomainError):
        case(1.0)


def test_shape_validation():
    with pytest.raises(DomainError):
        gj.t2_jpdf(EXP, 4, 5, 1.0, 2.0)
    with pytest.raises(DomainError):
        gj.t5_jpdf(EXP, 3, 4, 1, 1.0, 2.0)
    with pytest.raises(DomainError):
        gj.t1_pdf(EXP, 0, 1.0)
