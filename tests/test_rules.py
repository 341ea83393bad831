"""The nested Gauss-Kronrod pair, the node counts of ``rules._doubled``
and the one segment engine of ``_gauss_knots`` and ``_cut``."""

import pathlib
import re

import numpy as np
import pytest

from ordstat import rules
from ordstat.errors import IntegrationWarning

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


# -- each integral alone: ``_gauss_knots`` and ``_cut`` on one engine --


def _smooth(x, row):
    # A smooth integrand of its own per row.
    return np.exp(-(1.0 + 0.01 * row) * x) / (1.0 + x * x)


@pytest.mark.parametrize("exact", [True, False])
def test_gauss_knots_row_is_the_same_alone_or_in_a_batch(exact):
    # Each segment sums its own nodes, so a row's bits do not depend on
    # the rows beside it, nor on how they fall into blocks.
    rows = 3000
    rng = np.random.default_rng(7)
    lo = rng.uniform(0.0, 0.4, rows)
    hi = lo + rng.uniform(0.2, 2.0, rows)
    knots = np.stack([np.full(rows, 0.5), lo + 0.3 * (hi - lo)], axis=1)
    got = rules._gauss_knots(_smooth, lo, hi, knots, deg=3, exact=exact)
    for i in range(0, rows, 97):
        alone = rules._gauss_knots(lambda x, r: _smooth(x, r + i), lo[i],
                                   hi[i], knots[i], deg=3, exact=exact)
        assert alone == got[i], i


def _step(x, owner):
    # 1 left of a jump that each integral places at its own point.
    return np.where(x < 0.3 + 0.001 * owner, 1.0, 0.0) * np.exp(-x)


@pytest.mark.filterwarnings("error")
def test_cut_finds_a_step_inside_a_segment():
    for jump in (0.3, 0.77):
        got = rules._cut(lambda x, _: np.where(x < jump, 1.0, 0.0),
                         np.array([0.0]), np.array([1.0]), np.array([0]), 1,
                         epsrel=1e-10)
        assert got[0] == pytest.approx(jump, rel=1e-10)
    # Two segments of one integral, one with a step in it.
    got = rules._cut(lambda x, _: np.where(x < 1.45, np.exp(-x), 0.0),
                     np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                     np.array([0, 0]), 1, epsrel=1e-10)
    assert got[0] == pytest.approx(-np.expm1(-1.45), rel=1e-10)


@pytest.mark.filterwarnings("error")
def test_cut_segment_is_the_same_alone_or_among_many():
    # 500 integrals, one segment each, half of them smooth and half with
    # a step that they cut: each keeps the bits it has alone.
    size = 500
    rng = np.random.default_rng(11)
    lo = rng.uniform(0.0, 0.25, size)
    hi = lo + rng.uniform(0.5, 1.5, size)

    def f(x, owner):
        return np.where(owner % 2, _step(x, owner), _smooth(x, owner))

    got = rules._cut(f, lo, hi, np.arange(size), size, epsrel=1e-10)
    assert got[1] == pytest.approx(np.exp(-lo[1]) - np.exp(-0.301),
                                   rel=1e-10)
    for i in range(0, size, 7):
        alone = rules._cut(lambda x, o: f(x, o + i), lo[i:i + 1],
                           hi[i:i + 1], np.array([0]), 1, epsrel=1e-10)
        assert alone[0] == got[i], i


@pytest.mark.filterwarnings("error")
def test_complex_row_with_zero_imaginary_part_is_the_real_row():
    lo, hi = np.array([0.0, 0.4, 1.0]), np.array([0.4, 1.0, 3.0])
    owner = np.array([0, 0, 1])
    real = rules._cut(_step, lo, hi, owner, 2, epsrel=1e-10)
    cplx = rules._cut(lambda x, o: _step(x, o) + 0j, lo, hi, owner, 2,
                      epsrel=1e-10)
    assert np.iscomplexobj(cplx) and not np.iscomplexobj(real)
    assert np.array_equal(cplx.real, real) and np.all(cplx.imag == 0.0)
    vals = np.exp(-np.linspace(0.0, 2.0, 51)).reshape(3, 17)
    _, _, w = rules._kronrod(8)
    assert np.array_equal(rules._row_sums(vals + 0j, w).real,
                          rules._row_sums(vals, w))


def _tier1_error_filters():
    # The messages that ``pyproject.toml`` turns into errors in the tests.
    root = pathlib.Path(__file__).resolve().parent.parent
    return re.findall(r'"error:([^"]*)"',
                      (root / "pyproject.toml").read_text())


def _doubled_at_its_cap():
    return rules._gauss_knots(lambda x, _: np.abs(np.sin(200.0 * x)),
                              0.0, 1.0, deg=0, exact=False)


def _cut_out_of_rounds(monkeypatch):
    # Steps every 0.01: one round cuts one of them per open segment.
    monkeypatch.setattr(rules, "_MAX_CUTS", 2)
    return rules._cut(lambda x, _: np.floor(100.0 * x) % 2,
                      np.array([0.0]), np.array([1.0]), np.array([0]), 1,
                      epsrel=1e-10)


@pytest.mark.parametrize("make, text", [
    (lambda mp: _doubled_at_its_cap(), "did not converge: its pair"),
    (_cut_out_of_rounds, "did not converge in 2 rounds of cuts"),
], ids=["doubled", "cut"])
def test_unconverged_rules_warn_under_the_tier1_filter(monkeypatch, make,
                                                       text):
    with pytest.warns(IntegrationWarning, match=text) as seen:
        make(monkeypatch)
    filters = _tier1_error_filters()
    assert filters
    for w in seen:
        assert any(re.match(f, str(w.message), re.I) for f in filters)
