"""Quadrature + transform-inversion evaluators against closed exponential
forms and elementary convolution facts."""

import math

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre
from scipy import integrate, special

from ordstat import exact_exp, generic_joint as gj
from ordstat.distributions import CustomDistribution, Exponential, HalfNormal
from ordstat.errors import ConvergenceError, DomainError, IntegrationWarning
from ordstat.partition import Partition, TheoremMatch, match_theorem

EXP = Exponential(1.0)
HN = HalfNormal(0.8)


def uniform01():
    return CustomDistribution(
        pdf=lambda x: ((x >= 0.0) & (x <= 1.0)) * 1.0,
        cdf=lambda x: np.clip(x, 0.0, 1.0),
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
    knots = [k for k in gj._lattice(lo, hi, n, ()) if math.isfinite(k)]
    mass, _ = integrate.quad(lambda t: gj._inv_pow(dist, lo, hi, n, t),
                             n * lo, n * hi, points=knots or None,
                             epsabs=1e-12, epsrel=1e-10, limit=200)
    assert mass == pytest.approx(dist.kernel_mu(lo, hi, 0.0) ** n, rel=1e-8)


def test_lattice_sums_the_points_and_breaks():
    # No breaks: j*lo + (n-j)*hi to the bit, with no 0*inf from an
    # infinite hi.  With b breaks: every sum of n of the b + 2 points but
    # n*lo and n*hi, C(n+b+1, b+1) - 2 of them.
    lo = np.array([0.1, 0.7, 0.3])
    hi = np.array([0.9, math.inf, 2.2])
    for n in range(1, 7):
        got = gj._lattice(lo, hi, n, ())
        want = [j * lo + (n - j) * hi for j in range(1, n)]
        assert sorted(map(tuple, got)) == sorted(map(tuple, want))
        got = np.array(gj._lattice(lo, hi, n, (0.5, 1.0)))
        assert got.shape == (math.comb(n + 3, 3) - 2, 3)
        assert not np.isnan(got).any()
        assert np.isclose(got[:, 2], 0.3 + 1.0 + (n - 2) * 2.2).any() == (
            n >= 2)
        # Breaks outside [lo, hi] clip onto its ends.
        assert np.all((got[:, 0] >= n * 0.1) & (got[:, 0] <= n * 0.9))


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


# -- the kernel-power inverse on node arrays --


def _mp_steps(n, t, lo, step):
    """e^-t/(n-1)! * sum_j (-1)^j C(n, j) (t - lo - j*step)_+^(n-1), in
    mpmath: the inverse of mu(a, b, -s)^n of exp:1 with lo = n*a and
    step = b - a."""
    t = mpmath.mpf(t)
    terms = [(-1) ** j * math.comb(n, j) * (t - lo - j * step) ** (n - 1)
             for j in range(n + 1) if t - lo - j * step > 0]
    return mpmath.exp(-t) * mpmath.fsum(terms) / math.factorial(n - 1)


def _closed(kind, n, t):
    if kind == "c":      # mu(0, 1.1)
        return _mp_steps(n, t, 0.0, 1.1)
    if kind == "e":      # mu(0.9, inf): (t - n*g)^(n-1) e^-t / (n-1)!
        t = mpmath.mpf(t)
        return ((t - n * 0.9) ** (n - 1) * mpmath.exp(-t)
                / math.factorial(n - 1))
    return _mp_steps(n, t, n * 0.4, 1.3 - 0.4)    # mu(0.4, 1.3)


LIMITS = {"c": (0.0, 1.1), "e": (0.9, math.inf), "mu": (0.4, 1.3)}


@pytest.mark.parametrize("kind", sorted(LIMITS))
@pytest.mark.parametrize("n", range(1, 7))
def test_power_inverse_matches_exponential_closed_form(kind, n):
    lo, hi = LIMITS[kind]
    top = n * hi if math.isfinite(hi) else n * lo + 4.0
    t = n * lo + (top - n * lo) * np.linspace(0.02, 0.98, 12).reshape(3, 4)
    got = gj._inv_pow(EXP, lo, hi, n, t)
    assert got.shape == t.shape
    want = [[float(_closed(kind, n, v)) for v in row] for row in t]
    assert got == pytest.approx(np.array(want), rel=1e-12)


@pytest.mark.parametrize("nc,ne", [(1, 1), (2, 3), (4, 2)])
def test_mixed_power_inverse_matches_exponential_closed_form(nc, ne):
    # c(g)^nc * e(g)^ne inverts to
    # e^-t/(n-1)! * sum_j (-1)^j C(nc, j) (t - (j + ne)*g)_+^(n-1).
    g, n = 0.7, nc + ne
    t = ne * g + np.linspace(0.05, n * g + 1.0, 9)
    got = gj._inv_prod(EXP, (0.0, g, nc), (g, math.inf, ne), t)
    want = [float(mpmath.exp(-v) * mpmath.fsum(
        (-1) ** j * math.comb(nc, j) * mpmath.mpf(v - (j + ne) * g) ** (n - 1)
        for j in range(nc + 1) if v > (j + ne) * g) / math.factorial(n - 1))
        for v in t]
    assert got == pytest.approx(np.array(want), rel=1e-12)


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
def test_power_zero_factor_is_the_other_power_alone(dist):
    # A factor of power 0 is 1, on either side: the inverse of the product
    # is ``_inv_pow`` of the other factor, bit for bit, at a scalar t and
    # over limits and t that broadcast.
    g = np.array([[0.5], [0.8], [1.1]])
    cases = [((0.0, 0.7, 3), 1.3), ((0.7, math.inf, 2), 2.1),
             ((0.0, g, 2), g * [0.3, 0.9, 1.4, 1.9]),
             ((g, math.inf, 3), g * [3.2, 3.9, 4.5, 6.0])]
    for power, t in cases:
        want = gj._inv_pow(dist, *power, t)
        assert np.all(want > 0.0)
        for zero in ((0.0, power[0], 0), (power[1], math.inf, 0)):
            for got in (gj._inv_prod(dist, power, zero, t),
                        gj._inv_prod(dist, zero, power, t)):
                assert np.shape(got) == np.shape(want)
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
@pytest.mark.parametrize("K,Ks", [(6, 3), (7, 5), (6, 6)])
def test_rank_rest_last_at_the_end_ranks(dist, K, Ks):
    # At m = 1 (T5a) the rest lie between z4 and x, a c-power; at
    # m = Ks-1 (T5c) above x, an e-power.  Each is the product of the
    # pdf, the rank-Ks factor and that one power, bit for bit.
    x = np.array([[0.6], [0.9], [1.4]])
    z4 = 0.3 * x
    pref = math.factorial(K) / (math.factorial(K - Ks)
                                * math.factorial(Ks - 2))
    last = np.asarray(dist.cdf(z4)) ** (K - Ks) * dist.pdf(z4)
    w = (Ks - 2) * (z4 + (x - z4) * [0.1, 0.5, 0.9])
    got = gj.FineRankRestLast(K, Ks, 1, dist).values(x, w, z4)
    want = pref * dist.pdf(x) * last * gj._inv_pow(dist, z4, x, Ks - 2, w)
    assert np.all(want > 0.0)
    np.testing.assert_array_equal(got, want)
    w = (Ks - 2) * x + [0.2, 0.8, 2.0]
    got = gj.FineRankRestLast(K, Ks, Ks - 1, dist).values(x, w, z4)
    want = (pref * dist.pdf(x) * last
            * gj._inv_pow(dist, x, math.inf, Ks - 2, w))
    assert np.all(want > 0.0)
    np.testing.assert_array_equal(got, want)


def _truncated(dist, z4):
    """``dist`` truncated at z4: density f/(1 - F(z4)) above z4, which
    jumps at z4, a declared break."""
    F = float(dist.cdf(z4))
    return CustomDistribution(
        pdf=lambda x: np.where(x >= z4, dist.pdf(x) / (1.0 - F), 0.0),
        cdf=lambda x: np.where(x >= z4, (dist.cdf(x) - F) / (1.0 - F), 0.0),
        mean=z4 + dist.mean, abscissa=math.inf, breaks=(z4,),
        name="truncated")


@pytest.mark.parametrize("z4", [0.2, 0.6])
def test_fine_densities_are_pairs_of_the_law_truncated_at_the_floor(z4):
    # Renyi: above the rank-Ks value z4 the best Ks-1 are i.i.d. with the
    # law truncated at z4.  So a fine density is the floor factor, times
    # (1 - F(z4))^(Ks-1), times the T2 or T3 pair of Ks-1 variables of
    # that law: a route through its numeric pair and break lattice, not
    # through the closed pair above the floor z4.
    trunc = _truncated(HN, z4)

    def floor(K, Ks):
        return (math.factorial(K) / (math.factorial(K - Ks)
                                     * math.factorial(Ks - 1))
                * float(HN.cdf(z4)) ** (K - Ks) * float(HN.pdf(z4))
                * (1.0 - float(HN.cdf(z4))) ** (Ks - 1))

    K, Ks = 5, 4
    n = Ks - 1
    for m in range(1, Ks):
        x = z4 + np.array([[0.3], [0.9]])
        span = (n - m) * (x - z4) + (m - 1) * 1.0
        w = (m - 1) * x + (n - m) * z4 + span * [0.3, 0.7]
        got = gj.FineRankRestLast(K, Ks, m, HN).values(x, w, z4)
        want = floor(K, Ks) * gj.t2_jpdf(trunc, n, m, x, w)
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    K, Ks, m = 6, 5, 2
    x = 2.0 * z4 + np.array([[1.2], [2.0]])
    tail = 2.0 * z4 + np.array([0.3, 0.8])
    got = gj.FineHeadTailLast(K, Ks, m, HN).values(x, tail + z4, z4)
    want = floor(K, Ks) * gj.t3_jpdf(trunc, Ks - 1, m, x, tail)
    assert np.all(want > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _mp_irwin_hall(n, t):
    """Density of the sum of n uniforms on [0, 1] at t, in mpmath."""
    t = mpmath.mpf(t)
    return mpmath.fsum((-1) ** j * math.comb(n, j) * (t - j) ** (n - 1)
                       for j in range(int(t) + 1)) / math.factorial(n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_inverse_of_uniform_is_irwin_hall(n):
    # e(0) of a density on [0, 1]: the upper limit inf is clamped to the
    # support, so the jumps of the pdf fall on segment edges.
    t = np.linspace(0.03, n - 0.03, 17)
    got = gj._inv_pow(uniform01(), 0.0, math.inf, n, t)
    want = [float(_mp_irwin_hall(n, v)) for v in t]
    assert got == pytest.approx(np.array(want), rel=1e-12)


def test_power_inverse_batch_equals_elements():
    lo = np.array([0.0, 0.9, 0.4, 0.2])
    hi = np.array([1.1, math.inf, 1.3, 0.7])
    t = np.array([[0.5], [2.9], [3.3], [1.2]])
    got = gj._inv_pow(HN, lo, hi, 3, t)
    assert got.shape == (4, 4)
    assert (got > 0).any() and (got == 0).any()
    for (i, j), v in np.ndenumerate(got):
        one = gj._inv_pow(HN, lo[j], hi[j], 3, t[i, 0])
        assert v == pytest.approx(float(one), rel=1e-14, abs=0.0)


def _unmirrored(lo, hi, n):
    # ``gj._halves`` with two objects for an even power too: every node.
    return (lo, hi, n // 2), (lo, hi, n - n // 2)


def _as_custom(dist):
    """``dist`` as a ``CustomDistribution``: the same pdf and cdf, with no
    closed pair, so that its kernel powers convolve the pdf numerically."""
    return CustomDistribution(pdf=dist.pdf, cdf=dist.cdf, mean=dist.mean,
                              abscissa=dist.abscissa,
                              name=f"{dist.name} as custom")


@pytest.mark.parametrize("n,share", [(2, 2), (4, 4)])
def test_square_evaluates_each_mirrored_pair_once(monkeypatch, n, share):
    # On a fixed 16-node rule, the halves of power n evaluate half the
    # nodes of their convolution and a power-4 inverse, two such levels
    # deep, sends a quarter of the full rule's elements to the pdf.  The
    # t avoid the lattice points of c(1.1)^n and t minus them.  The
    # half-normal is written as a custom law: the built-in one takes its
    # power 2 in closed form, and calls no pdf there.
    t = np.array([0.37, 1.29, 2.03, 3.51])[:n]
    lo, hi = np.zeros(t.size), np.full(t.size, 1.1)
    builtin = HalfNormal(0.8)
    monkeypatch.setattr(builtin, "pdf", lambda x: pytest.fail("pdf called"))
    assert (gj._inv_pow(builtin, 0.0, 1.1, 2, t[:2]) > 0).all()
    dist = _as_custom(HalfNormal(0.8))
    sizes = []
    pdf = dist.pdf
    monkeypatch.setattr(dist, "pdf",
                        lambda x: sizes.append(np.size(x)) or pdf(x))
    got = gj._pow(dist, lo, hi, n, t, gj.rules._gauss01(16))
    half = sum(sizes)
    sizes.clear()
    monkeypatch.setattr(gj, "_halves", _unmirrored)
    want = gj._pow(dist, lo, hi, n, t, gj.rules._gauss01(16))
    assert half > 0 and share * half == sum(sizes)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


# c(1.1), e(0.9) and mu(0.4, 1.3) of the built-in laws and of the same
# laws as custom ones, which convolve their pdf where the built-in ones
# take the closed pair.
@pytest.mark.parametrize("dist", [Exponential(1.0), HalfNormal(1.0)],
                         ids=["exp", "halfnormal"])
@pytest.mark.parametrize("kind", sorted(LIMITS))
def test_closed_pair_agrees_with_the_numeric_convolution(dist, kind):
    custom = _as_custom(dist)
    lo, hi = LIMITS[kind]
    for n in range(2, 6):
        top = n * hi if math.isfinite(hi) else n * lo + 6.0
        t = n * lo + (top - n * lo) * np.linspace(0.01, 0.99, 25)
        got = gj._inv_pow(dist, lo, hi, n, t)
        want = gj._inv_pow(custom, lo, hi, n, t)
        big = want > 1e-12 * want.max()
        assert big.sum() >= 20
        assert got[big] == pytest.approx(want[big], rel=1e-10, abs=0.0)
    g = 0.7
    for nc, ne in ((1, 1), (1, 2), (2, 3)):
        t = ne * g + np.linspace(0.02, nc * g + 6.0, 25)
        c, e = (0.0, g, nc), (g, math.inf, ne)
        got = gj._inv_prod(dist, c, e, t)
        want = gj._inv_prod(custom, c, e, t)
        big = want > 1e-12 * want.max()
        assert big.sum() >= 20
        assert got[big] == pytest.approx(want[big], rel=1e-10, abs=0.0)


# Generic half-normal T2 where the value is small.  The references ran
# both pairs, the closed one and the numeric convolution of the pdf,
# with the n/2n test at no absolute floor, a relative target of 1e-13
# and 256 nodes at most; the two agree to 3e-14.  The K=6 one
# also agrees, to 2e-15, with a 30-digit nested mpmath integral of the
# erf-form pair.  With the numeric pair, the n/2n test's absolute floor
# (_EPSABS) stopped these rules early: off by 7.4e-6, 3.1e-7 and 7.8%.
@pytest.mark.parametrize("K,m,z1,z2,want,rel", [
    (6, 3, 0.0652052, 8.89471, 3.0312568447659355e-11, 1e-12),
    (10, 3, 2.5, 27.666666666666668, 1.1232997333479709e-24, 1e-9),
    (10, 3, 2.5, 40.0, 1.982353643823462e-71, 1e-9)])
def test_halfnormal_t2_small_values_match_tight_references(K, m, z1, z2,
                                                            want, rel):
    got = gj.t2_jpdf(HalfNormal(1.0), K, m, z1, z2)
    assert got == pytest.approx(want, rel=rel, abs=0.0)


def test_mirrored_rule_counts_an_odd_centre_node_once():
    # An odd table has a node at the middle of the middle segment, its own
    # mirror: the square of c(1.1) gives the full rule's value.
    lo, hi, t = np.zeros(3), np.full(3, 1.1), np.array([0.6, 1.3, 2.0])
    a = (lo, hi, 1)
    table = gj.rules._gauss01(7)
    got = gj._conv(HN, a, a, t, table).sum(axis=1)
    want = gj._conv(HN, a, _unmirrored(lo, hi, 2)[1], t, table).sum(axis=1)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def _unit_step(pdf):
    # support_upper is left at inf: the jump at 1 is no lattice point.
    return CustomDistribution(pdf=pdf, cdf=lambda x: np.clip(x, 0.0, 1.0),
                              mean=0.5, abscissa=math.inf, name="unit-step")


def test_power_inverse_warns_at_its_cap(monkeypatch):
    step = _unit_step(lambda x: np.where((x >= 0) & (x < 1), 1.0, 0.0))
    monkeypatch.setattr(gj, "_MAX_NODES", 16)
    with pytest.warns(IntegrationWarning, match="did not converge"):
        got = gj._inv_pow(step, 0.0, math.inf, 2, np.array([0.5, 1.3]))
    assert got == pytest.approx([0.5, 0.7], abs=0.05)


def test_power_inverse_refuses_non_finite_values():
    broken = _unit_step(lambda x: np.where(x < 1.0, 1.0, np.nan))
    with pytest.raises(ConvergenceError):
        gj._inv_pow(broken, 0.0, math.inf, 2, 1.5)


# Densities with a declared break at 1: 1/2 on [0, 1) and 3/2 on
# [1, 4/3] (a jump), and 1 - |x - 1| on [0, 2] (a kink).  Each entry is
# the distribution and its pdf in mpmath.
BROKEN = {
    "jump": (CustomDistribution(
        pdf=lambda x: np.where((x >= 0) & (x < 1), 0.5,
                               np.where((x >= 1) & (x <= 4 / 3), 1.5, 0.0)),
        cdf=lambda x: np.where(x < 1, 0.5 * np.clip(x, 0, 1),
                               np.minimum(0.5 + 1.5 * (x - 1), 1.0)),
        mean=1 / 4 + 7 / 12, abscissa=math.inf, support_upper=4 / 3,
        name="jump", breaks=(1.0,)),
        lambda x: 0.5 if x < 1 else 1.5),
    "kink": (CustomDistribution(
        pdf=lambda x: np.maximum(1.0 - np.abs(x - 1.0), 0.0),
        cdf=lambda x: np.where(x < 1, 0.5 * np.clip(x, 0, 1) ** 2,
                               1 - 0.5 * np.clip(2 - x, 0, 1) ** 2),
        mean=1.0, abscissa=math.inf, support_upper=2.0, name="kink",
        breaks=(1.0,)),
        lambda x: 1 - abs(x - 1)),
}


def _mp_conv3(pdf, parts, t, breaks):
    """(p1 * p2 * p3)(t) at 30 digits, p_i the pdf restricted to parts[i],
    by Gauss-Legendre rules on the pieces between every kink."""
    def points(lo, hi, cand):
        return sorted({lo, hi, *(p for p in cand if lo < p < hi)})

    def ends(l, h):
        return [l, *breaks, h]

    (l1, h1), (l2, h2), (l3, h3) = parts

    def inner(u):
        s = t - u
        lo, hi = max(l2, s - h3), min(h2, s - l3)
        if lo >= hi:
            return 0
        cut = ends(l2, h2) + [s - q for q in ends(l3, h3)]
        return mpmath.quad(lambda v: pdf(v) * pdf(s - v),
                           points(lo, hi, cut), method="gauss-legendre")

    lo, hi = max(l1, t - h2 - h3), min(h1, t - l2 - l3)
    cut = ends(l1, h1) + [t - a - b for a in ends(l2, h2)
                          for b in ends(l3, h3)]
    return mpmath.quad(lambda u: pdf(u) * inner(u), points(lo, hi, cut),
                       method="gauss-legendre")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(BROKEN))
@pytest.mark.parametrize("m, z2", [(1, 2.0), (2, 2.8)])
def test_t2_across_a_declared_break_matches_mpmath(name, m, z2):
    # K=4 at z1 = 1.2: the c-power of the K-m ranks below z1 holds the
    # break, and so do the lattices of its convolutions at z2.
    dist, mp_pdf = BROKEN[name]
    z1 = 1.2
    with mpmath.workdps(30):
        up = mpmath.mpf(dist.support_upper)
        below, above = (0, mpmath.mpf(z1)), (mpmath.mpf(z1), up)
        parts = [below] * (4 - m) + [above] * (m - 1)
        want = (_t2_pref(4, m) * mp_pdf(mpmath.mpf(z1))
                * _mp_conv3(mp_pdf, parts, mpmath.mpf(z2), [1]))
    assert gj.t2_jpdf(dist, 4, m, z1, z2) == pytest.approx(float(want),
                                                           rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_t3_across_a_declared_break_cuts_its_rule_there():
    # K=4, m=2 at (2.2, 0.8) on the jump law.  The rank-2 value g runs
    # from 2.2 - 4/3, where the head value 2.2 - g leaves the support, to
    # 1.1.  There the head's pdf is 3/2, and the two tail values, which
    # sum to 0.8, lie below g: the tail factor is 0.8 * (1/2)^2 = 0.2.
    # pdf(g) jumps from 1/2 to 3/2 at the break 1, so the density is
    # 12 * 0.2 * (3/4 * (1 - (2.2 - 4/3)) + 9/4 * 0.1) = 0.78.
    dist, _ = BROKEN["jump"]
    assert gj.t3_jpdf(dist, 4, 2, 2.2, 0.8) == pytest.approx(0.78,
                                                             rel=1e-13)


def _t2_pref(K, m):
    return math.factorial(K) // (math.factorial(K - m)
                                 * math.factorial(m - 1))


def _gamma_half_pdf(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x >= 0.0, np.exp(-x) / np.sqrt(np.pi * x), 0.0)


# Gamma(1/2): the pdf is infinite at 0, where a Gauss-Legendre rule
# converges only algebraically, and its n-fold convolution is Gamma(n/2).
GAMMA_HALF = CustomDistribution(
    pdf=_gamma_half_pdf,
    cdf=lambda x: special.erf(np.sqrt(np.maximum(x, 0.0))),
    mean=0.5, abscissa=1.0, name="gamma-half")


def _gamma_pdf(a, t):
    return t ** (a - 1) * np.exp(-t) / math.gamma(a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_power_inverse_of_singular_density(n):
    # e(0)^n everywhere, and c(g)^n below g, where no summand reaches g:
    # both ends of the outer convolution hold the pdf near 0.
    t = np.array([[0.05, 0.3, 1.1, 2.9]])
    got = gj._inv_pow(GAMMA_HALF, 0.0, np.array([[math.inf], [3.0]]), n, t)
    assert got == pytest.approx(np.vstack([_gamma_pdf(n / 2, t)] * 2),
                                rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_singular_density_square_and_t2():
    # For Gamma(1/2), p(u) p(t-u) = e^-t / (pi sqrt(u (t-u))), whose
    # integral from a to b is e^-t/pi [2 arcsin sqrt(u/t)]_a^b.
    def arc(t, a, b):
        return (2 * np.exp(-t) / np.pi
                * (np.arcsin(np.sqrt(b / t)) - np.arcsin(np.sqrt(a / t))))

    g, t = 0.8, np.array([0.9, 1.2, 1.55])
    got = gj._inv_pow(GAMMA_HALF, 0.0, g, 2, t)
    assert got == pytest.approx(arc(t, t - g, g), rel=1e-12)
    # T2 at K=3, m=2: 6 p(z1) times the c(z1) * e(z1) inverse at z2.
    for z1, z2 in [(0.5, 1.0), (0.3, 1.6)]:
        want = 6 * _gamma_half_pdf(z1) * arc(z2, 0.0, min(z1, z2 - z1))
        assert gj.t2_jpdf(GAMMA_HALF, 3, 2, z1, z2) == pytest.approx(
            float(want), rel=1e-12)


@pytest.mark.filterwarnings("default:.*-node rule on .* did not converge")
def test_reductions_of_singular_density():
    # With Ks = K the sum of the best Ks is the sum of all: Gamma(K/2).
    # pdf(v) ~ v^(-1/2) at the end v = 0 of the rule over the rank-Ks
    # value, where a Gauss-Legendre rule stops at its cap; the tanh-sinh
    # stage converges there.  The 6 warnings of the kernel-power inverses
    # at outer nodes within about 1e-13 of 0, whose values are right, are
    # allowed here only: anywhere else such a warning fails the test.
    for K, x in [(3, 1.0), (3, 2.5), (4, 1.7)]:
        assert gj.t4_pdf(GAMMA_HALF, K, K, x) == pytest.approx(
            _gamma_pdf(K / 2, x), rel=1e-12)


def test_scalar_only_density_is_refused():
    scalar = CustomDistribution(pdf=lambda x: math.exp(-x),
                                cdf=lambda x: -math.expm1(-x), mean=1.0,
                                abscissa=1.0, name="scalar-exp")
    assert scalar.pdf1(0.5) == math.exp(-0.5)
    with pytest.raises(DomainError, match="scalar-exp: pdf must map"):
        gj.t2_jpdf(scalar, 4, 2, 0.5, 1.5)


# -- larger K on the generic path --

LARGE_K = [("T2", 8, 1, (0.6, 2.1)), ("T2", 8, 4, (0.6, 3.0)),
           ("T2", 10, 5, (0.5, 3.1)), ("T2", 10, 10, (0.4, 4.6)),
           ("T3", 8, 3, (2.5, 2.2)), ("T3", 10, 6, (6.0, 1.2)),
           ("T4", 8, 7, (4.2,)), ("T4", 10, 9, (5.4,))]


@pytest.mark.parametrize("fam,K,k,pt", LARGE_K,
                         ids=[f"{f}-K{K}-{k}" for f, K, k, _ in LARGE_K])
def test_large_K_matches_exact(fam, K, k, pt):
    generic, exact = {
        "T2": (gj.t2_jpdf, exact_exp.jpdf_one_vs_rest_allK),
        "T3": (gj.t3_jpdf, exact_exp.jpdf_headsum_vs_tailsum_allK),
        "T4": (gj.t4_pdf, exact_exp.pdf_gsc_sum)}[fam]
    want = exact(K, k, 1.0)(*pt)
    assert want > 0.0
    assert generic(EXP, K, k, *pt) == pytest.approx(want, rel=1e-9)


def _mp_hn_inv(sigma, lo, hi, n, t, rule):
    """Inverse of mu(lo, hi, -s)^n of the half-normal at t, in mpmath.

    Power 2 is closed-form: p(x) p(t-x) is a Gaussian in x - t/2.  Higher
    powers convolve by a fixed Gauss-Legendre ``rule`` on the lattice
    segments.
    """
    if t < n * lo or t > n * hi:
        return mpmath.mpf(0)
    c = mpmath.sqrt(2 / mpmath.pi) / sigma
    if n == 1:
        return c * mpmath.exp(-t ** 2 / (2 * sigma ** 2))
    if n == 2:
        a, b = max(lo, t - hi), min(hi, t - lo)
        return (c ** 2 * mpmath.exp(-t ** 2 / (4 * sigma ** 2)) * sigma
                * mpmath.sqrt(mpmath.pi) / 2
                * (mpmath.erf((b - t / 2) / sigma)
                   - mpmath.erf((a - t / 2) / sigma)))
    h = n // 2
    return _mp_hn_conv(sigma, (lo, hi, h), (lo, hi, n - h), t, rule)


def _mp_hn_conv(sigma, fa, fb, t, rule):
    (la, ha, na), (lb, hb, nb) = fa, fb
    a, b = max(na * la, t - nb * hb), min(na * ha, t - nb * lb)
    pts = {j * la + (na - j) * ha for j in range(1, na)}
    pts |= {t - (j * lb + (nb - j) * hb) for j in range(1, nb)}
    edges = [a, *sorted(p for p in pts if a < p < b), b]
    total = mpmath.mpf(0)
    for e0, e1 in zip(edges, edges[1:]):
        mid, half = (e0 + e1) / 2, (e1 - e0) / 2
        for x, w in rule:
            u = mid + half * x
            total += (half * w * _mp_hn_inv(sigma, la, ha, na, u, rule)
                      * _mp_hn_inv(sigma, lb, hb, nb, t - u, rule))
    return total


def test_halfnormal_t2_large_K_matches_mpmath():
    # 12 nodes per segment agree with 48 to 25 digits at this point.
    K, m, z1, z2 = 8, 4, 0.5, 2.6
    with mpmath.workdps(30):
        rule = GaussLegendre(mpmath.mp).calc_nodes(3, mpmath.mp.prec)
        sigma, g = mpmath.mpf(HN.sigma), mpmath.mpf(z1)
        inv = _mp_hn_conv(sigma, (0, g, K - m), (g, mpmath.inf, m - 1),
                          mpmath.mpf(z2), rule)
        want = (math.factorial(K) / (math.factorial(K - m)
                                     * math.factorial(m - 1))
                * _mp_hn_inv(sigma, 0, mpmath.inf, 1, g, rule) * inv)
    got = gj.t2_jpdf(HN, K, m, z1, z2)
    assert got == pytest.approx(float(want), rel=1e-9)


@pytest.mark.parametrize("kind", ["c", "e"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_halfnormal_power_inverse_matches_mpmath(kind, n):
    # c(1.1)^n and e(0.9)^n of the half-normal at three points of each
    # support; the reference convolves by 24 nodes a segment at 30 digits.
    lo, hi = {"c": (0.0, 1.1), "e": (0.9, math.inf)}[kind]
    top = n * hi if kind == "c" else n * lo + 3.0
    t = n * lo + (top - n * lo) * np.array([0.2, 0.45, 0.7])
    got = gj._inv_pow(HN, lo, hi, n, t)
    with mpmath.workdps(30):
        rule = GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)
        mlo, mhi = mpmath.mpf(lo), mpmath.mpf(hi)
        want = [float(_mp_hn_inv(mpmath.mpf(HN.sigma), mlo, mhi, n,
                                 mpmath.mpf(v), rule)) for v in t]
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_inverse_across_a_declared_kink_matches_mpmath(n):
    # The triangle on [0, 2] with its kink at 1 declared is the density of
    # two uniforms' sum, so e(0)^n inverts to Irwin-Hall of order 2n.  c(1.5)
    # cuts the triangle past its kink: its squares and cubes against
    # 30-digit quadratures on the pieces between the kinks.
    dist, mp_pdf = BROKEN["kink"]
    t = np.linspace(0.15, 2 * n - 0.15, 7)
    got = gj._inv_pow(dist, 0.0, math.inf, n, t)
    with mpmath.workdps(30):
        want = [float(_mp_irwin_hall(2 * n, v)) for v in t]
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    if n > 3:
        return
    g = mpmath.mpf(1.5)
    t = np.array([0.4, 1.2, 2.1, 0.9 * n * 1.5])
    got = gj._inv_pow(dist, 0.0, 1.5, n, t)
    with mpmath.workdps(30):
        if n == 2:
            want = [mpmath.quad(lambda u: mp_pdf(u) * mp_pdf(v - u),
                                sorted({max(0, v - g), min(g, v),
                                        *(p for p in (1, v - 1)
                                          if max(0, v - g) < p < min(g, v))}))
                    for v in map(mpmath.mpf, t)]
        else:
            want = [_mp_conv3(mp_pdf, [(0, g)] * 3, mpmath.mpf(v), [1])
                    for v in t]
    assert got == pytest.approx([float(w) for w in want], rel=1e-13, abs=0.0)


# One point per family and T5 case, at K=5.
K5_POINTS = [(gj.t2_jpdf, (5, 2, 0.8, 2.0)), (gj.t3_jpdf, (5, 2, 3.0, 1.2)),
             (gj.t4_pdf, (5, 3, 2.0)), (gj.t5_jpdf, (5, 4, 1, 1.0, 2.0)),
             (gj.t5_jpdf, (5, 5, 3, 0.5, 2.0)),
             (gj.t5_jpdf, (5, 4, 3, 0.6, 2.2)),
             (gj.t5_jpdf, (5, 4, 4, 0.5, 2.0)),
             (gj.t6_jpdf, (5, 4, 2, 2.6, 1.1))]


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
def test_k5_points_are_finite_and_positive(dist):
    for fn, args in K5_POINTS:
        val = fn(dist, *args)
        assert math.isfinite(val) and val > 0.0, (fn.__name__, args)
