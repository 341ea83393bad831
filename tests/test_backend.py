"""Step-sum kernel: node arrays and the scalar loop against exact sums."""

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
    rows = thr if thr.ndim == 2 else np.broadcast_to(thr, (zs.size, thr.size))
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
    thr = rng.uniform(0.0, 5.0, (N, T))
    zs = rng.uniform(0.0, 8.0, N)
    zs[:10] = thr[:10].min(axis=1) - 0.5     # below every threshold
    zs[10:20] = thr[10:20, -1]                # exactly at a threshold
    got = _backend.poly_exp_eval(coeff, thr, power, zs)
    got_s, got_mag = _backend.poly_exp_eval_scale(coeff, thr, power, zs)
    assert got.shape == (N,)
    for j, (want, mag) in enumerate(_exact(coeff, thr, power, zs)):
        loop = _backend.poly_exp_eval(coeff, thr[j], power, float(zs[j]))
        assert abs(got[j] - want) <= 4 * EPS * mag
        assert abs(loop - want) <= 4 * EPS * mag
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
    # One value of z against a threshold row per node.
    rows = rng.uniform(0.0, 4.0, (25, 12))
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
    got = _backend.poly_exp_eval(coeff, np.zeros((4, 3)), power,
                                 np.linspace(0.0, 3.0, 4))
    assert got.tolist() == [1.0] * 4
