"""End-to-end verification suites with deterministic reports.

Every analytic layer here has at least one independent route to the same
number, and each suite drives one such pair against the other:

* ``kernels``: the three kernel transforms against their mutual relations.
* ``identities``: closed nested-integral forms against literal nested
  quadrature, depths 1 to 4.
* ``reorder``: the five integration orderings of a depth-4 ordered region
  against each other.
* ``normalization``: densities against total mass 1 and against textbook
  order-statistic marginals.  In one and two dimensions the integrals are
  rows of the Gauss-Legendre rules of ``rules`` over ``values`` arrays,
  with every infinite range cut where the tail beyond holds under 1e-11
  of the mass; in three and four dimensions they are quasi-Monte Carlo,
  on a randomly shifted rank-1 lattice rule.
* ``cross_path``: the exponential closed forms against the generic
  transform-inversion path at points drawn from the shape's own law, one
  Monte Carlo row each (``mc_oracle``).
* ``mc``: analytic densities against Monte Carlo sampling.  The
  Kolmogorov-Smirnov checks compare with CDFs built from the densities
  by Gauss cell integrals and a cubic Hermite interpolant.

The suites need numpy alone, half-normals included.  Their large arrays
go through fixed blocks of ``mc_oracle._BLOCK`` rows: the Monte Carlo
samples as they are drawn, sorted and summed, the histograms as each
block is binned, the CDFs of the Kolmogorov-Smirnov checks, and the
lattice points through their map and density.  So beyond the sums of one
Kolmogorov-Smirnov sample and the lattice's terms no suite holds an
array of the sample or lattice size, and every value has the bits of one
pass over the whole array.

Reports are plain dicts of JSON types with no timestamps or machine
identifiers; rendered with sorted keys they are byte-identical for a fixed
seed.  Each suite draws from its own counter-based stream, so filtering
suites never shifts another suite's randomness.
"""

import json
import math

import numpy as np

from ordstat import exact_exp, generic_joint, kernels, mc_oracle
from ordstat.distributions import Exponential, HalfNormal
from ordstat.errors import DomainError, OrdstatError
from ordstat.kernels import NestedIntegralSpec
from ordstat.mc_oracle import _BLOCK, SampleSpec
from ordstat.partition import TheoremMatch, theorem_partition
from ordstat.rules import _gauss01, _gauss_knots

__all__ = [
    "SUITE_NAMES",
    "run_suites",
    "render_report",
    "report_json",
    "qmc_normalization",
]

SUITE_NAMES = ("kernels", "identities", "reorder", "normalization",
               "cross_path", "mc")

_LANES = {name: i for i, name in enumerate(SUITE_NAMES)}

TOL_KERNELS = 1e-9
TOL_IDENTITIES = 1e-7
TOL_REORDER = 1e-7
TOL_NORM_LOW = 1e-6        # dims 1-2, Gauss-Legendre rules
TOL_NORM_QMC = 1e-3        # dims 3-4, quasi-Monte Carlo
TOL_RANK_MARGINAL = 1e-7
TOL_CROSS = 1e-5
KS_SCALED_BOUND = 1.95
BIN_FRACTION = 0.95

# Stands in for "evaluation raised" in a report; keeps the JSON strict
# (no Infinity tokens) while failing any bound.
_FAILED_EVAL = 1e300

# The rank-1 lattice of ``qmc_normalization``: 2^15 points, generating
# vector found component by component (Nuyens & Cools 2006), each
# component the odd z < 2^14 that minimizes P_2 with unit product weights
# given the components before it.
_LATTICE_LOG2 = 15
_LATTICE_Z = (1, 12031, 7247, 2267)
# The largest double below 1: a tent-transformed point stays inside [0, 1).
_BELOW_ONE = 1.0 - 2.0 ** -53
# Cells of the CDFs of the mc suite: 1,800 pdf values for the cell
# integrals and 601 for the slopes.
_CDF_CELLS = 600

# A placeholder: perfbench's tracer swaps a counting proxy into this
# name, and no ordstat code reads it.
integrate = None


def _sizes(quick):
    if quick:
        return {"kernel_tuples": 40, "ident_configs": 10,
                "reorder_configs": 3, "cross_points": 4, "cross_kmax": 4,
                "mc_n": 100_000, "ks_seeds": 3, "ks_min_ok": 2,
                "qmc_log2": 15, "marginal_kmax": 4, "heavy_norm": False,
                "bin_cases": 2}
    return {"kernel_tuples": 100, "ident_configs": 50,
            "reorder_configs": 10, "cross_points": 20, "cross_kmax": 5,
            "mc_n": 1_000_000, "ks_seeds": 5, "ks_min_ok": 4,
            "qmc_log2": 17, "marginal_kmax": 6, "heavy_norm": True,
            "bin_cases": 5}


def _rng(seed, suite):
    return np.random.Generator(
        np.random.Philox(key=[seed & (2 ** 64 - 1), _LANES[suite]]))


def _rel(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _check(name, observed, bound, op="<="):
    ok = observed <= bound if op == "<=" else observed >= bound
    return {"name": name, "observed": float(observed), "bound": float(bound),
            "op": op, "pass": bool(ok)}


def _rand_dist(rng):
    if rng.random() < 0.5:
        return Exponential(float(rng.uniform(0.4, 2.5)))
    return HalfNormal(float(rng.uniform(0.4, 2.5)))


def _rand_lam(rng, dist, convergent):
    """Random transform argument; kept left of the abscissa when the
    configuration involves an unbounded integral."""
    scale = dist.mean
    hi = 0.8 / scale
    if convergent and math.isfinite(dist.abscissa):
        hi = min(hi, 0.6 * dist.abscissa)
    re = float(rng.uniform(-1.6 / scale, hi))
    if rng.random() < 0.5:
        return complex(re, float(rng.uniform(-2.0, 2.0)) / scale)
    return re


# ---------------------------------------------------------------- kernels

def _suite_kernels(seed, sizes, depth=None):
    rng = _rng(seed, "kernels")
    worst = {"c_from_e": 0.0, "e_from_c": 0.0, "mu_from_c": 0.0}
    for _ in range(sizes["kernel_tuples"]):
        dist = _rand_dist(rng)
        scale = dist.mean
        lam = _rand_lam(rng, dist, convergent=True)
        ga = float(rng.uniform(0.15, 3.0)) * scale
        gb = ga + float(rng.uniform(0.1, 2.0)) * scale
        c_a = dist.kernel_c(ga, lam)
        worst["c_from_e"] = max(
            worst["c_from_e"],
            _rel(c_a, dist.kernel_e(0.0, lam) - dist.kernel_e(ga, lam)))
        worst["e_from_c"] = max(
            worst["e_from_c"],
            _rel(dist.kernel_e(ga, lam),
                 dist.kernel_c(math.inf, lam) - c_a))
        worst["mu_from_c"] = max(
            worst["mu_from_c"],
            _rel(dist.kernel_mu(ga, gb, lam), dist.kernel_c(gb, lam) - c_a))
    return [_check(f"kernels/{k}", v, TOL_KERNELS)
            for k, v in sorted(worst.items())]


# ------------------------------------------------------------- identities

def _ident_pair(rng, depth):
    """One random closed/brute configuration at the given depth.

    Complex lam is used only at depths 1-2; depths 3-4 take the real
    part of the same draw.  This is not for speed, since the brute
    force's tensor rule evaluates a complex weight in the same pass as a
    real one: it keeps the suite's configurations, and with them its
    report, fixed.  ``tests/test_kernels.py`` covers complex lam at
    depths 3-4.  The draw consumes the same random variates at every
    depth so that per-depth streams stay aligned across profiles.
    """
    dist = _rand_dist(rng)
    scale = dist.mean
    fam = ("im", "iprime", "idp")[int(rng.integers(0, 3))]
    if fam == "im":
        unbounded = depth <= 2 and rng.random() < 0.25
        gu = math.inf if unbounded else float(rng.uniform(0.4, 2.5)) * scale
        lam = _rand_lam(rng, dist, unbounded)
        spec = NestedIntegralSpec(depth, lam if depth <= 2 else
                                  complex(lam).real, gamma_upper=gu)
        return dist, fam, spec
    if fam == "iprime":
        gl = float(rng.uniform(0.0, 1.6)) * scale
        lam = _rand_lam(rng, dist, True)
        spec = NestedIntegralSpec(depth, lam if depth <= 2 else
                                  complex(lam).real, gamma_lower=gl)
        return dist, fam, spec
    gl = float(rng.uniform(0.0, 1.5)) * scale
    gu = gl + float(rng.uniform(0.4, 2.0)) * scale
    lam = _rand_lam(rng, dist, False)
    spec = NestedIntegralSpec(depth, lam if depth <= 2 else
                              complex(lam).real, gamma_lower=gl,
                              gamma_upper=gu)
    return dist, fam, spec


_CLOSED = {"im": kernels.im_closed, "iprime": kernels.iprime_closed,
           "idp": kernels.idoubleprime_closed}
_BRUTE = {"im": kernels.im_bruteforce, "iprime": kernels.iprime_bruteforce,
          "idp": kernels.idoubleprime_bruteforce}


def _brute(dist, fam, spec):
    return _BRUTE[fam](dist, spec)


def _suite_identities(seed, sizes, depth=None):
    rng = _rng(seed, "identities")
    checks = []
    for d in (1, 2, 3, 4):
        worst = 0.0
        for _ in range(sizes["ident_configs"]):
            dist, fam, spec = _ident_pair(rng, d)
            if depth is not None and d != depth:
                continue
            worst = max(worst, _rel(_CLOSED[fam](dist, spec),
                                    _brute(dist, fam, spec)))
        if depth is not None and d != depth:
            continue
        checks.append(_check(f"identities/depth{d}", worst, TOL_IDENTITIES))
    return checks


# ---------------------------------------------------------------- reorder

def _suite_reorder(seed, sizes, depth=None):
    rng = _rng(seed, "reorder")
    worst = 0.0
    for _ in range(sizes["reorder_configs"]):
        dist = _rand_dist(rng)
        scale = dist.mean
        lam = _rand_lam(rng, dist, convergent=False)
        gb = float(rng.uniform(0.0, 0.8)) * scale
        ga = gb + float(rng.uniform(0.5, 2.0)) * scale
        vals = [kernels.reorder_check(dist, order, (gb, ga), lam)
                for order in kernels.FIVE_ORDERINGS]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst = max(worst, _rel(vals[i], vals[j]))
    return [_check("reorder/pairwise5", worst, TOL_REORDER)]


# ---------------------------------------------------------- normalization

def _rank_marginal(dist, K, m, z):
    """Textbook density of the m-th largest of K iid draws."""
    F = dist.cdf(z)
    comb = math.factorial(K) // (math.factorial(m - 1) * math.factorial(K - m))
    return comb * dist.pdf(z) * F ** (K - m) * (1.0 - F) ** (m - 1)


def qmc_normalization(density, chain, m_log2, seed):
    """Total mass of ``density``, by a randomly shifted rank-1 lattice rule
    pushed through a support-fitted coordinate map.  The points go
    through the map and ``density.values`` in blocks of ``_BLOCK``, and
    the mass is the mean of all their terms, so it has the bits of one
    call on the whole lattice.

    The rule takes ``2^(m_log2 - 15)`` shifts Δ of the 2^15-point lattice
    ``{k z / 2^15 + Δ} mod 1`` (``m_log2 >= 15``), drawn from ``seed`` on
    a counter-based stream.  Each coordinate then goes through the tent
    transform ``1 - |2u - 1|``, which makes the lattice rule converge on
    integrands that are smooth but not periodic (Sloan & Joe 1994).

    ``chain`` realizes the density's coordinates one at a time, each from
    the ones already drawn: ``(index, "exp", fn)`` with ``fn(z) -> (lo,
    scale)`` maps onto ``[lo, inf)`` with an exponential proposal tail, and
    ``(index, "lin", fn)`` with ``fn(z) -> (lo, hi)`` maps uniformly onto
    the bounded interval.  Covering exactly the support region keeps the
    integrand continuous; a plain bounding box would reintroduce the
    support indicator, whose discontinuity costs quasi-Monte Carlo most of
    its convergence advantage.
    """
    if m_log2 < _LATTICE_LOG2:
        raise DomainError(f"m_log2 must be at least {_LATTICE_LOG2}")
    n, d = 2 ** _LATTICE_LOG2, len(chain)
    shifts = _rng(seed, "normalization").random(
        (2 ** (m_log2 - _LATTICE_LOG2), d))
    base = np.multiply.outer(np.arange(n), _LATTICE_Z[:d]) % n / n
    terms = np.empty((shifts.shape[0], n))
    for k, shift in enumerate(shifts):
        for j in range(0, n, _BLOCK):
            u = base[j:j + _BLOCK] + shift
            u[u >= 1.0] -= 1.0
            u = np.minimum(1.0 - np.abs(2.0 * u - 1.0), _BELOW_ONE)
            z = np.zeros_like(u)
            jac = np.ones(u.shape[0])
            for col, (idx, kind, fn) in enumerate(chain):
                ui = u[:, col]
                if kind == "exp":
                    lo, scale = fn(z)
                    z[:, idx] = lo - scale * np.log1p(-ui)
                    jac *= scale / (1.0 - ui)
                else:
                    lo, hi = fn(z)
                    z[:, idx] = lo + (hi - lo) * ui
                    jac *= hi - lo
            np.multiply(density.values(*z.T), jac,
                        out=terms[k, j:j + _BLOCK])
    return float(np.mean(terms.ravel()))


def _y_integrals(jd, xs, y_span, deg):
    """The integral over y of ``jd(x, y)`` at each of the values ``xs``, as
    the rows of one rule; ``y_span(xs)`` gives their limits and knots.

    Each block of nodes is one ``jd.values`` call; a reduced density (T3,
    T5, T6) integrates those nodes as the rows of its own rule.
    """
    lo, hi, knots = y_span(xs)
    return _gauss_knots(lambda y, r: jd.values(xs[r], y), lo, hi, knots,
                        deg=deg, exact=False)


def _mass_2d(jd, x_cut, y_span, deg):
    return _gauss_knots(lambda xs, _: _y_integrals(jd, xs, y_span, deg),
                        0.0, x_cut, deg=deg, exact=False)


def _marginal_match(jd, oracle, x_vals, y_span, deg):
    xs = np.array(x_vals)
    got = _y_integrals(jd, xs, y_span, deg)
    return max(map(_rel, got, oracle(xs)))


def _one_vs_rest_span(K, m):
    """The y-limits and knots of the one-vs-rest density at rank-m values
    ``xs`` (unit mean).

    Above rank m the y-range is infinite; it stops at the last knot or at
    (m-1)x + 40, whichever is larger.  Given x, y - (m-1)x adds m-1 unit
    exponentials and K-m values below x, so the part cut off is at most
    P(Gamma(K-1) > 40) of the row's integral: under 5.1e-13 for K <= 6.
    """
    j = np.arange(m, K) if m > 1 else np.arange(1, K - 1)

    def span(xs):
        lo, hi = (m - 1) * xs, (K - 1) * xs
        return lo, hi if m == 1 else np.maximum(hi, lo + 40.0), \
            np.multiply.outer(xs, j)

    return span


def _suite_normalization(seed, sizes, depth=None):
    checks = []
    dist = Exponential(1.0)

    # Every range is cut where the mass beyond is below 1e-11, far under
    # the bounds.  The 1-d tails hold 4.3e-18 past 40 and under 1.5e-19
    # past 45 and 5.1e-21 past 60 (the sum of all five bounds the gsc
    # ones).  Of the 2-d masses, the rank-m value exceeds 20 or 30, and
    # the head sum 45, with probability under 5e-13; the y-cuts are
    # stated with their spans.
    for name, obj, cut in (
            ("erlang_K1", exact_exp.pdf_sum_all(1, 1.0), 40.0),
            ("erlang_K4", exact_exp.pdf_sum_all(4, 1.0), 60.0),
            ("gsc_best1of5", exact_exp.pdf_gsc_sum(5, 1, 1.0), 45.0),
            ("gsc_best3of5", exact_exp.pdf_gsc_sum(5, 3, 1.0), 60.0),
            ("gsc_all4of4", exact_exp.pdf_gsc_sum(4, 4, 1.0), 60.0)):
        mass = _gauss_knots(lambda x, _: obj.values(x), 0.0, cut, deg=obj.K,
                            exact=False)
        checks.append(_check(f"normalization/{name}", abs(mass - 1.0),
                             TOL_NORM_LOW))

    for m in (1, 3, 5):
        jd = exact_exp.jpdf_one_vs_rest_allK(5, m, 1.0)
        mass = _mass_2d(jd, 30.0, _one_vs_rest_span(5, m), deg=3)
        checks.append(_check(f"normalization/one_vs_rest_5_{m}",
                             abs(mass - 1.0), TOL_NORM_LOW))

    # Given the rank-3 value x, y - 2x is a Gamma(2) variable, beyond 30
    # with probability 31 exp(-30) < 3e-12.
    jd = exact_exp.jpdf_one_vs_rest_bestKs(5, 3, 3, 1.0)
    mass = _mass_2d(jd, 20.0, lambda x: (2.0 * x, 2.0 * x + 30.0,
                                         np.empty((x.size, 0))), deg=1)
    checks.append(_check("normalization/best3of5_rank3_vs_rest",
                         abs(mass - 1.0), TOL_NORM_LOW))

    if sizes["heavy_norm"]:
        jd = exact_exp.jpdf_headsum_vs_tailsum_allK(3, 2, 1.0)
        mass = _mass_2d(jd, 45.0, lambda x: (0.0, 0.5 * x,
                                             np.empty((x.size, 0))), deg=1)
        checks.append(_check("normalization/head_tail_3_2",
                             abs(mass - 1.0), TOL_NORM_LOW))

        jd = exact_exp.jpdf_one_vs_rest_bestKs(4, 3, 1, 1.0)
        mass = _mass_2d(jd, 30.0, lambda x: (0.0, 2.0 * x, x[:, None]),
                        deg=1)
        checks.append(_check("normalization/best3of4_rank1_vs_rest",
                             abs(mass - 1.0), TOL_NORM_LOW))

    # The remaining two-dimensional shapes evaluate through nested
    # quadrature, so a direct double integral is slow; their y-integral at
    # fixed x equals an independently normalized one-dimensional density
    # (the m-best sum, or the textbook rank marginal), which pins the
    # total mass through a much cheaper comparison.  Given the rank-m
    # value x < 1.7, the y-ranges cut at x + 35 and 2x + 35 miss at most
    # P(Gamma(2) > 35 - 2x) < 7e-13 of the marginal.
    gsc2 = exact_exp.pdf_gsc_sum(5, 2, 1.0)
    worst = _marginal_match(
        exact_exp.jpdf_headsum_vs_tailsum_allK(5, 2, 1.0), gsc2.values,
        (1.5, 3.0, 5.0),
        lambda x: (0.0, 1.5 * x, np.multiply.outer(x, [0.5, 1.0])), deg=1)
    checks.append(_check("normalization/head_tail_5_2_marginal",
                         worst, TOL_NORM_LOW))

    worst = _marginal_match(
        exact_exp.jpdf_one_vs_rest_bestKs(5, 4, 2, 1.0),
        lambda x: _rank_marginal(dist, 5, 2, x), (0.5, 1.0, 1.7),
        lambda x: (x, x + 35.0, np.multiply.outer(x, [2.0, 3.0])), deg=2)
    checks.append(_check("normalization/best4of5_rank2_vs_rest_marginal",
                         worst, TOL_NORM_LOW))

    worst = _marginal_match(
        exact_exp.jpdf_one_vs_rest_bestKs(5, 4, 3, 1.0),
        lambda x: _rank_marginal(dist, 5, 3, x), (0.4, 0.8, 1.4),
        lambda x: (2.0 * x, 2.0 * x + 35.0, 3.0 * x[:, None]), deg=2)
    checks.append(_check("normalization/best4of5_rank3_vs_rest_marginal",
                         worst, TOL_NORM_LOW))

    worst = _marginal_match(
        exact_exp.jpdf_headsum_vs_tailsum_bestKs(5, 4, 2, 1.0), gsc2.values,
        (1.8, 3.5), lambda x: (0.0, x, 0.5 * x[:, None]), deg=2)
    checks.append(_check("normalization/best4of5_head2_tail2_marginal",
                         worst, TOL_NORM_LOW))

    # Chains draw the rank variables first (smallest rank value, then the
    # ones above it) so every sum coordinate sees its bounds; proposal
    # scales sit a little above each conditional mean.
    m_log2 = sizes["qmc_log2"]
    for name, density, chain in (
            ("fine_one_mid_last_5_4", exact_exp.FineOneMidLast(5, 4, 1.0), (
                (2, "exp", lambda z: (0.0, 1.0)),
                (0, "exp", lambda z: (z[:, 2], 1.5)),
                (1, "lin", lambda z: (2.0 * z[:, 2], 2.0 * z[:, 0])))),
            ("fine_head_next_last_5_4",
             exact_exp.FineHeadNextLast(5, 4, 1.0), (
                 (2, "exp", lambda z: (0.0, 1.0)),
                 (1, "exp", lambda z: (z[:, 2], 1.5)),
                 (0, "exp", lambda z: (2.0 * z[:, 1], 2.5)))),
            ("fine_head_mid_last_6_5_2",
             exact_exp.FineHeadMidLast(6, 5, 2, 1.0), (
                 (3, "exp", lambda z: (0.0, 1.0)),
                 (1, "exp", lambda z: (z[:, 3], 1.5)),
                 (0, "exp", lambda z: (z[:, 1], 1.5)),
                 (2, "lin", lambda z: (2.0 * z[:, 3], 2.0 * z[:, 1])))),
            ("fine_head_mid_last_6_5_3",
             exact_exp.FineHeadMidLast(6, 5, 3, 1.0), (
                 (3, "exp", lambda z: (0.0, 1.0)),
                 (1, "exp", lambda z: (z[:, 3], 1.5)),
                 (0, "exp", lambda z: (2.0 * z[:, 1], 2.5)),
                 (2, "lin", lambda z: (z[:, 3], z[:, 1]))))):
        mass = qmc_normalization(density, chain, m_log2, seed)
        checks.append(_check(f"normalization/qmc_{name}",
                             abs(mass - 1.0), TOL_NORM_QMC))

    worst = 0.0
    for K in range(2, sizes["marginal_kmax"] + 1):
        for m in range(1, K + 1):
            worst = max(worst, _marginal_match(
                exact_exp.jpdf_one_vs_rest_allK(K, m, 1.0),
                lambda x: _rank_marginal(dist, K, m, x), (0.5, 1.1, 2.0),
                _one_vs_rest_span(K, m), deg=K - 2))
    checks.append(_check("normalization/rank_marginal_one_vs_rest",
                         worst, TOL_RANK_MARGINAL))
    return checks


# ------------------------------------------------------------- cross_path

def _cross(shape, gb, *pt):
    """Relative gap between the exact and the generic density of ``shape``
    on the exponential of mean ``gb`` at ``pt``; exact evaluated first."""
    dist = Exponential(gb)
    exact = generic_joint.resolve(shape, dist, "exact")[0](*pt)
    got = generic_joint.resolve(shape, dist, "generic")[0](*pt)
    return _rel(got, exact, floor=1e-9)


# The shapes of the cross_path points of each family (T5 by case): the
# least K, the least Ks (None: Ks = K) and the range of m given Ks (None:
# no m).  K runs up to the profile's ``cross_kmax``, Ks up to K.
_CP_SHAPES = {
    "T1": (1, None, None),
    "T2": (2, None, lambda ks: (1, ks)),
    "T3": (2, None, lambda ks: (1, ks - 1)),
    "T4": (1, 1, None),
    "T5a": (3, 3, lambda ks: (1, 1)),
    "T5b": (4, 4, lambda ks: (2, ks - 2)),
    "T5c": (3, 3, lambda ks: (ks - 1, ks - 1)),
    "T5d": (2, 2, lambda ks: (ks, ks)),
    "T6": (2, 2, lambda ks: (1, ks - 1)),
}


def _cp_point(rng, key, kmax):
    """The arguments of ``_cross`` at one point of ``key``, a key of
    ``_CP_SHAPES``: a theorem match drawn from its row, the mean gb of the
    exponential, and the match's partial sums in one draw from that law,
    seeded from ``rng`` too.  The match is built directly, so Ks = K runs
    the T4-T6 reductions (``generic_joint.resolve``)."""
    def draw(lo, hi):
        return int(rng.integers(lo, hi + 1))

    k_lo, ks_lo, m_range = _CP_SHAPES[key]
    K = draw(k_lo, kmax)
    Ks = K if ks_lo is None else draw(ks_lo, K)
    m = None if m_range is None else draw(*m_range(Ks))
    gb = float(rng.uniform(0.6, 1.7))
    part = theorem_partition(key[:2], K, Ks, m)
    spec = SampleSpec(Exponential(gb), K, Ks, part, 1,
                      int(rng.integers(2 ** 63)))
    return (TheoremMatch(key, K, Ks, m), gb,
            *mc_oracle.sample_partial_sums(spec)[0].tolist())


def _suite_cross_path(seed, sizes, depth=None):
    rng = _rng(seed, "cross_path")
    npts, kmax = sizes["cross_points"], sizes["cross_kmax"]
    checks = []
    for fam in ("T1", "T2", "T3", "T4", "T5", "T6"):
        worst = 0.0
        for i in range(npts):
            key = fam + "dacb"[i % 4] if fam == "T5" else fam
            if key == "T5b" and kmax < 4:
                key = "T5a"
            point = _cp_point(rng, key, kmax)
            try:
                worst = max(worst, _cross(*point))
            except OrdstatError:
                worst = _FAILED_EVAL
        checks.append(_check(f"cross_path/{fam}", worst, TOL_CROSS))
    return checks


# --------------------------------------------------------------------- mc

def _cdf_interp(pdf, hi):
    """The CDF of the density ``pdf`` on [0, hi], as a vectorized function
    that holds its value at ``hi`` beyond.

    The CDF at equally spaced knots sums 3-node Gauss-Legendre integrals
    over the cells between them; between knots it is the cubic Hermite
    interpolant with the pdf as its slope, whose error is about h^4/384
    times the largest third derivative of the pdf, for a cell width h.
    """
    h = hi / _CDF_CELLS
    xs = np.linspace(0.0, hi, _CDF_CELLS + 1)
    dl, _, w = _gauss01(3)
    cell = pdf.values(np.add.outer(xs[:-1], h * dl)) @ (h * w)
    cs = np.concatenate(([0.0], np.cumsum(cell)))
    ps = pdf.values(xs)

    def cdf(v):
        x = np.clip(np.asarray(v, dtype=float), 0.0, hi) / h
        i = np.minimum(x.astype(int), _CDF_CELLS - 1)
        t = x - i
        s = 1.0 - t
        f = (s * s * (1.0 + 2.0 * t) * cs[i] + t * t * (3.0 - 2.0 * t)
             * cs[i + 1] + h * s * t * (s * ps[i] - t * ps[i + 1]))
        return np.clip(f, 0.0, 1.0)

    return cdf


def _suite_mc(seed, sizes, depth=None):
    dist = Exponential(1.0)
    n = sizes["mc_n"]
    checks = []

    ks_cases = (
        ("sum_all_4", theorem_partition("T1", 4),
         _cdf_interp(exact_exp.pdf_sum_all(4, 1.0), 60.0)),
        ("gsc_best3of5", theorem_partition("T4", 5, 3),
         _cdf_interp(exact_exp.pdf_gsc_sum(5, 3, 1.0), 40.0)),
    )
    for name, part, cdf in ks_cases:
        n_ok = 0
        for i in range(sizes["ks_seeds"]):
            spec = SampleSpec(dist, part.K, part.Ks, part, n,
                              seed + 7919 * i)
            s = mc_oracle.sample_partial_sums(spec)[:, 0]
            d = mc_oracle.ks_distance(s, cdf)
            if d * math.sqrt(n) < KS_SCALED_BOUND:
                n_ok += 1
        checks.append(_check(f"mc/ks_{name}", n_ok, sizes["ks_min_ok"],
                             op=">="))

    bin_cases = (
        ("one_vs_rest_4_2", exact_exp.jpdf_one_vs_rest_allK(4, 2, 1.0),
         theorem_partition("T2", 4, m=2), ((0.0, 3.5, 30), (0.0, 9.0, 30))),
        ("head_tail_4_2", exact_exp.jpdf_headsum_vs_tailsum_allK(4, 2, 1.0),
         theorem_partition("T3", 4, m=2), ((0.0, 10.0, 30), (0.0, 3.5, 30))),
        ("best3of5_rank3_vs_rest", exact_exp.jpdf_one_vs_rest_bestKs(5, 3, 3, 1.0),
         theorem_partition("T5", 5, 3, 3), ((0.0, 3.0, 30), (0.0, 10.0, 30))),
        ("best3of5_rank2_vs_rest", exact_exp.jpdf_one_vs_rest_bestKs(5, 3, 2, 1.0),
         theorem_partition("T5", 5, 3, 2), ((0.0, 4.0, 30), (0.0, 9.0, 30))),
        ("best3of5_rank1_vs_rest", exact_exp.jpdf_one_vs_rest_bestKs(5, 3, 1, 1.0),
         theorem_partition("T5", 5, 3, 1), ((0.0, 7.0, 30), (0.0, 6.0, 30))),
    )
    for name, jd, part, bins in bin_cases[:sizes["bin_cases"]]:
        spec = SampleSpec(dist, part.K, part.Ks, part, n, seed + 104729)
        emp = mc_oracle.empirical_density(spec, bins)
        n_pass, n_seen = mc_oracle.bin_agreement(emp, jd.values, nsigma=3.0,
                                                 min_count=5,
                                                 support=jd.support)
        frac = n_pass / n_seen if n_seen else 0.0
        checks.append(_check(f"mc/bins_{name}", frac, BIN_FRACTION, op=">="))
    return checks


# ------------------------------------------------------------ entry points

_SUITE_FNS = {
    "kernels": _suite_kernels,
    "identities": _suite_identities,
    "reorder": _suite_reorder,
    "normalization": _suite_normalization,
    "cross_path": _suite_cross_path,
    "mc": _suite_mc,
}


def run_suites(seed=42, quick=True, suites=None, depth=None):
    """Run the requested suites and return a JSON-ready report dict."""
    chosen = tuple(suites) if suites else SUITE_NAMES
    unknown = sorted(set(chosen) - set(SUITE_NAMES))
    if unknown:
        raise DomainError(f"unknown suite(s) {unknown}; "
                          f"available: {', '.join(SUITE_NAMES)}")
    if depth is not None and not 1 <= depth <= kernels.MAX_BRUTE_DEPTH:
        raise DomainError(f"depth must lie in [1, {kernels.MAX_BRUTE_DEPTH}]")
    sizes = _sizes(quick)
    suites_out = {}
    for name in SUITE_NAMES:
        if name not in chosen:
            continue
        checks = _SUITE_FNS[name](seed, sizes, depth=depth)
        suites_out[name] = {
            "checks": checks,
            "passed": sum(1 for c in checks if c["pass"]),
            "failed": sum(1 for c in checks if not c["pass"]),
        }
    passed = sum(s["passed"] for s in suites_out.values())
    failed = sum(s["failed"] for s in suites_out.values())
    return {"schema": 1, "seed": int(seed),
            "profile": "quick" if quick else "full",
            "suites": suites_out, "passed": passed, "failed": failed,
            "all_pass": failed == 0}


def report_json(report):
    """Canonical byte-stable JSON rendering of a report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_report(report):
    """Human summary, one line per check."""
    lines = []
    for name in SUITE_NAMES:
        suite = report["suites"].get(name)
        if suite is None:
            continue
        for c in suite["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{status} {c['name']}: observed {c['observed']:.3e} "
                         f"(bound {c['op']} {c['bound']:.3e})")
    lines.append(f"summary: {report['passed']} passed, "
                 f"{report['failed']} failed "
                 f"[profile={report['profile']} seed={report['seed']}]")
    return "\n".join(lines) + "\n"
