"""Step-sum kernels: node arrays and single nodes against exact sums, the
node form bit for bit against raising every term, and ``power_difference``
against exact binomial step sums.

Thresholds are term-major: ``(T,)``, or ``(T, *nodes)`` with a column of
nodes per term.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ordstat import _backend

EPS = np.finfo(float).eps


def _terms(rng, T):
    coeff = (rng.choice([-1.0, 1.0], T) * rng.uniform(0.5, 2.0, T)
             * 10.0 ** rng.integers(0, 8, T))
    coeff = coeff[np.argsort(np.abs(coeff), kind="stable")]
    power = rng.integers(0, 28, T).astype(float)
    return coeff, power


def _exact(coeff, thr, power, zs):
    """(sum, sum of |term|) per node, in exact rational arithmetic.

    Each term's base ``z - threshold`` is the double that the step sum
    computes; everything after it is exact.  A term is off by at most an
    ulp or two (``pow``, then the coefficient), and the compensated sum
    adds about one rounding of the result, so a step sum lies within a
    few eps times the sum of |term| of these values.
    """
    rows = thr.T if thr.ndim == 2 else np.broadcast_to(thr, (zs.size, thr.size))
    out = []
    for z, t in zip(zs, rows):
        terms = [Fraction(float(c)) * Fraction(float(z - ti)) ** int(p)
                 for c, ti, p in zip(coeff, t, power) if z >= ti]
        out.append((float(sum(terms)), float(sum(map(abs, terms)))))
    return out


@pytest.mark.parametrize("T", [1, 30])
def test_nodes_match_scalar_loop(T):
    rng = np.random.default_rng(T)
    coeff, power = _terms(rng, T)
    N = 200
    thr = rng.uniform(0.0, 5.0, (N, T)).T
    zs = rng.uniform(0.0, 8.0, N)
    zs[:10] = thr[:, :10].min(axis=0) - 0.5  # below every threshold
    zs[10:20] = thr[-1, 10:20]              # exactly at a threshold
    got = _backend.poly_exp_eval(coeff, thr, power, zs)
    got_s, got_mag = _backend.poly_exp_eval_scale(coeff, thr, power, zs)
    assert got.shape == (N,)
    for j, (want, mag) in enumerate(_exact(coeff, thr, power, zs)):
        # One node, a float against its own threshold column.
        one = _backend.poly_exp_eval(coeff, thr[:, j], power, float(zs[j]))
        assert abs(got[j] - want) <= 4 * EPS * mag
        assert abs(one - want) <= 4 * EPS * mag
        assert got_s[j] == got[j]
        assert got_mag[j] == pytest.approx(mag, rel=1e-13)
    assert np.all(got[:10] == 0.0)
    assert np.all(got_mag[:10] == 0.0)


def test_shared_thresholds_and_scalar_node():
    rng = np.random.default_rng(3)
    coeff, power = _terms(rng, 12)
    thr = np.sort(rng.uniform(0.0, 4.0, 12))
    zs = np.concatenate([[-1.0, thr[0], thr[5]], rng.uniform(0.0, 6.0, 40)])
    got = _backend.poly_exp_eval(coeff, thr, power, zs)
    for j, (want, mag) in enumerate(_exact(coeff, thr, power, zs)):
        assert abs(got[j] - want) <= 4 * EPS * mag
        # A single node in the node form gives scalar-shaped results.
        s, m = _backend.poly_exp_eval_scale(coeff, thr, power, zs[j])
        assert np.shape(s) == np.shape(m) == ()
        assert abs(s - want) <= 4 * EPS * mag
        assert m == pytest.approx(mag, rel=1e-13)
    # One value of z against a threshold column per node.
    rows = rng.uniform(0.0, 4.0, (25, 12)).T
    got = _backend.poly_exp_eval(coeff, rows, power, 3.0)
    want = _exact(coeff, rows, power, np.full(25, 3.0))
    for g, (w, mag) in zip(got, want):
        assert abs(g - w) <= 4 * EPS * mag


def test_step_is_closed_on_the_left():
    coeff, power = np.array([2.5]), np.array([0.0])
    thr = np.array([1.0])
    assert _backend.poly_exp_eval(coeff, thr, power, 1.0) == 2.5
    assert _backend.poly_exp_eval(coeff, thr, power,
                                  math.nextafter(1.0, 0.0)) == 0.0
    got = _backend.poly_exp_eval(coeff, thr, power,
                                 np.array([math.nextafter(1.0, 0.0), 1.0, 2.0]))
    assert got.tolist() == [0.0, 2.5, 2.5]


def test_compensation_keeps_a_cancelled_term():
    # Summed plainly, 1 + 1e16 - 1e16 is 0; compensated, it is exactly 1.
    coeff = np.array([1.0, 1e16, -1e16])
    power = np.zeros(3)
    thr = np.zeros(3)
    assert _backend.poly_exp_eval(coeff, thr, power, 0.5) == 1.0
    got = _backend.poly_exp_eval(coeff, np.zeros((3, 4)), power,
                                 np.linspace(0.0, 3.0, 4))
    assert got.tolist() == [1.0] * 4


# -- the node form bit for bit against raising every term --


def _raise_every_term(coeff, thr, power, z):
    """The node form as a plain formula: every term is raised, and the
    terms below their thresholds are then multiplied by 0."""
    z = np.asarray(z, dtype=float)
    thr = np.asarray(thr, dtype=float)
    if thr.ndim == 1:
        thr = thr.reshape(-1, *(1,) * z.ndim)
    d = z - thr
    col = (-1,) + (1,) * (d.ndim - 1)
    live = d >= 0.0
    x = np.power(np.maximum(d, 0.0), power.reshape(col))
    x = x * coeff.reshape(col) * live
    s = np.cumsum(x, axis=0)
    prev = np.zeros_like(s)
    prev[1:] = s[:-1]
    bp = s - prev
    comp = (x - bp) + (prev - (s - bp))
    return s[-1] + comp.sum(axis=0), np.abs(x).sum(axis=0)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    zero = want == 0.0
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))


def _check_bits(coeff, thr, power, z):
    # inf - inf in the two-sum of a nan or infinite term is expected.
    with np.errstate(invalid="ignore"):
        want, want_mag = _raise_every_term(coeff, thr, power, z)
        got, got_mag = _backend.poly_exp_eval_scale(coeff, thr, power, z)
        _same_bits(got, want)
        _same_bits(got_mag, want_mag)
        _same_bits(_backend.poly_exp_eval(coeff, thr, power, z), want)


def _special(rng, a, share=0.05):
    # nan and +-inf at random entries of ``a``.
    a = a.copy()
    hit = rng.random(a.shape) < share
    a[hit] = rng.choice([np.nan, np.inf, -np.inf], hit.sum())
    return a


@pytest.mark.parametrize("T", [1, 2, 5, 12, 29, 31])
def test_nodes_match_raising_every_term(T):
    rng = np.random.default_rng(100 + T)
    N = 150
    coeff, power = _terms(rng, T)
    power[rng.random(T) < 0.3] = 0.0           # p = 0 terms
    if T % 2:
        coeff = -np.abs(coeff)                 # every dead term is -0
    thr = rng.uniform(0.0, 5.0, (T, N))
    z = rng.uniform(-1.0, 8.0, N)
    z[:10] = thr[:, :10].min(axis=0) - 0.5     # below every threshold
    z[10:20] = thr[rng.integers(T), 10:20]     # exactly at a threshold
    _check_bits(coeff, thr, power, z)
    _check_bits(coeff, _special(rng, thr), power, _special(rng, z))
    # 2-d nodes, and node arrays against a threshold column per row.
    thr2 = rng.uniform(0.0, 5.0, (T, 7, 9))
    _check_bits(coeff, thr2, power, rng.uniform(-1.0, 8.0, (7, 9)))
    _check_bits(coeff, _special(rng, thr2), power,
                _special(rng, rng.uniform(-1.0, 8.0, (7, 9))))
    _check_bits(coeff, thr2[:, :, :1], power, rng.uniform(-1.0, 8.0, 9))
    # Shared thresholds, a single node and one z against columns.
    shared = np.sort(rng.uniform(0.0, 4.0, T))
    _check_bits(coeff, shared, power, z)
    _check_bits(coeff, shared, power, _special(rng, z, 0.3))
    _check_bits(coeff, shared, power, rng.uniform(-1.0, 8.0, (4, 5)))
    _check_bits(coeff, shared, power, np.array(float(z[30])))
    _check_bits(coeff, shared, power, float(z[30]))
    _check_bits(coeff, thr, power, float(z[30]))
    _check_bits(coeff, _special(rng, thr), power, np.inf)


@pytest.mark.parametrize("base", [0.0, 0.35])
def test_alternating_binomials_bit_for_bit(base):
    # The K=30 step sum: 29 terms (-1)^j C(28, j), power 28, sorted by
    # |coeff|, with equally spaced thresholds.
    c = np.array([(-1) ** j * math.comb(28, j) for j in range(29)], float)
    order = np.argsort(np.abs(c), kind="stable")
    coeff, power = c[order], np.full(29, 28.0)
    h = np.array([0.1, 0.7, 1.3])
    thr = (base + np.multiply.outer(np.arange(29.0), h))[order]
    z = np.linspace(-0.5, 30.0, 4000)
    _check_bits(coeff, thr[..., None], power, np.multiply.outer(h, z))
    _check_bits(coeff, thr[:, :1], power, z)
    _check_bits(coeff, thr[:, 1], power, z[::7])
    for zi in (thr[3, 2], thr[0, 2], z[-1]):      # at a threshold, above
        _check_bits(coeff, thr[:, 2], power, float(zi))


def test_step_sums_reach_the_traced_entry_points(monkeypatch):
    # perfbench's tracer wraps these two attributes of ``_backend`` by name
    # and counts the terms as the length of the first argument.
    from ordstat import exact_exp
    seen = {"poly_exp_eval": [], "poly_exp_eval_scale": []}
    for name, calls in seen.items():
        fn = getattr(_backend, name)

        def counted(*a, fn=fn, calls=calls, **k):
            calls.append(len(a[0]))
            return fn(*a, **k)
        monkeypatch.setattr(_backend, name, counted)
    K, Ks, m = 10, 8, 3
    jd = exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, m, 1.0)
    assert jd.case == "b"
    x, y = np.meshgrid([0.6, 0.9], [4.0, 5.5], indexing="ij")
    assert np.all(jd(x, y) > 0.0)
    assert seen["poly_exp_eval"]
    assert set(seen["poly_exp_eval"]) == {Ks - m}      # n_mid + 1 terms
    assert not seen["poly_exp_eval_scale"]
    # T2's binomial step sum is ``power_difference``, which has no
    # alternating terms to sum.
    seen["poly_exp_eval"].clear()
    ov = exact_exp.jpdf_one_vs_rest_allK(K, 4, 1.0)
    assert np.all(ov(np.array([0.5, 1.0]), np.array([3.0, 6.0])) > 0.0)
    assert seen == {"poly_exp_eval": [], "poly_exp_eval_scale": []}


# -- power_difference: binomial step sums from nonnegative terms --


def _exact_difference(n, p, u, h, a):
    """``sum_j (-1)^j C(n, j) (u - (a + j) h)_+^p`` in rationals, at the
    float inputs, and the distance of u from the nearest edge of the
    support: the first threshold, and for p < n the last one."""
    u, h = Fraction(float(u)), Fraction(float(h))
    edges = [a * h] + ([(a + n) * h] if p < n else [])
    return (sum((-1) ** j * math.comb(n, j) * (u - (a + j) * h) ** p
                for j in range(n + 1) if u >= (a + j) * h),
            min(abs(u - e) for e in edges))


@pytest.mark.parametrize("n,p", [(1, 0), (2, 1), (5, 4), (29, 28), (0, 0),
                                 (0, 7), (1, 1), (3, 9), (14, 28), (28, 28)])
def test_power_difference_matches_exact_sums(n, p):
    rng = np.random.default_rng(7 * n + p)
    for a in (0, 1, 3):
        h = rng.uniform(0.05, 3.0, 200)
        x = rng.uniform(-1.0, n + 3.0, 200)
        x[:20] = rng.integers(0, n + 1, 20)        # on a knot
        x[20:30] = rng.integers(0, n + 1, 10) + 1e-9
        u = (a + x) * h
        got = _backend.power_difference(n, p, u, h, a)
        assert got.shape == u.shape
        for g, ui, hi in zip(got.tolist(), u.tolist(), h.tolist()):
            want, delta = _exact_difference(n, p, ui, hi, a)
            assert g >= 0.0
            # Every term is nonnegative: the error is relative, a few
            # roundings per level, plus the rounding of the distance from
            # the nearest support edge.  A point within a few ulps of an
            # edge may land on either side of it.
            if delta > 16 * EPS * abs(ui):
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
