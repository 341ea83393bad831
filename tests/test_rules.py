"""The nested Gauss-Kronrod pair, the node counts of ``rules._doubled``
and the one segment engine of ``_gauss_knots`` and ``_cut``."""

import functools
import pathlib
import re
import warnings

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


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
def test_clenshaw_curtis_integrates_its_interpolant(n):
    # Row i of S integrates from -1 to t_i exactly on degree <= n, and
    # the points of n are those of 2n at even places.
    t, s = rules._clenshaw_curtis(n)
    assert t.size == n + 1 and np.all(np.diff(t) > 0)
    assert t[0] == -1.0 and t[-1] == 1.0 and np.all(s[0] == 0.0)
    assert np.array_equal(rules._clenshaw_curtis(2 * n)[0][::2], t)
    for k in range(n + 1):
        want = (t ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.abs(s @ t ** k - want).max() <= 8 * EPS, k
    if n >= 16:     # exp is within eps of its interpolant of degree 16
        err = s @ np.exp(t) - (np.exp(t) - np.exp(-1.0))
        assert np.abs(err).max() <= 8 * EPS
    assert not any(a.flags.writeable for a in (t, s))


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


def _open_by_python_floats(total, err, epsabs, epsrel):
    # The test of an open integral, one Python float at a time.
    return [i for i, (v, e) in enumerate(zip(total.tolist(), err.tolist()))
            if not e <= max(epsabs, epsrel * abs(v))]


@pytest.mark.parametrize("dtype", [float, complex])
def test_doubling_closes_the_rows_that_python_floats_close(dtype):
    # Each row is (total v, difference d): one segment holds v on both
    # members and the other 0 against -d, so the pair differs by d
    # exactly.  Rows sit on and just past the epsabs floor and the epsrel
    # edge; a nan total leaves the floor, and a nan difference is open.
    epsabs, epsrel = 1e-10, 1e-8
    up = functools.partial(np.nextafter, np.inf)
    rows = [(1e-20, epsabs), (1e-20, up(epsabs)), (0.0, 0.0),
            (1.0, epsrel), (1.0, up(epsrel)), (-3.0, 3 * epsrel),
            (np.nan, 0.5 * epsabs), (np.nan, 2 * epsabs), (1.0, np.nan)]
    if dtype is complex:
        rows += [(3 + 4j, 5 * epsrel), (3 + 4j, 10 * epsrel),
                 (complex(np.nan, 1.0), 0.5 * epsabs)]
    v, d = (np.array(c, dtype=dtype) for c in zip(*rows))
    fine = np.stack([v, np.zeros_like(v)], axis=1)
    coarse = np.stack([v, -d], axis=1)
    seen = []

    def rule(n, todo):
        seen.append(todo)
        return (coarse[todo] if len(seen) == 1 else fine[todo]), \
            fine[todo], 2 * n

    out, _, _ = rules._doubling(rule, len(rows), epsabs, epsrel, 2, 64)
    want = _open_by_python_floats(fine.sum(axis=1),
                                  np.abs(fine - coarse).sum(axis=1),
                                  epsabs, epsrel)
    assert 0 < len(want) < len(rows)
    assert seen[1].tolist() == want
    assert np.array_equal(out, fine.sum(axis=1), equal_nan=True)


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


def test_gauss_2d_integrates_each_distinct_limit_once():
    # Repeated and unsorted upper limits, limits at and below lo, and a
    # nan: each element has the bits of a scalar call at its limit, and
    # the integrand sees the nodes of the distinct limits above lo alone.
    def f(s, v):
        nodes.append(s.size)
        return np.exp(-0.7 * s * v) * (1.0 + v * v)

    def run(hi):
        del nodes[:]
        return rules._gauss_2d(f, 1.0, hi, lambda s: (0.0 * s, s), deg=2,
                               epsabs=1e-13, epsrel=1e-12)

    nodes = []
    hi = np.array([3.0, 1.5, 3.0, 0.5, 1.0, np.nan, 8.0, 1.5, 3.0,
                   1.0 + 1e-9, 8.0, -np.inf])
    got = run(hi)
    cost = sum(nodes)
    want = [run(h) for h in hi.tolist()]
    assert all(type(v) is float for v in want)
    np.testing.assert_array_equal(got, want)
    assert np.isnan(got[5]) and np.all(got[[3, 4, 11]] == 0.0)
    assert np.all(got[[0, 1, 6, 9]] > 0.0)
    np.testing.assert_array_equal(run(hi.reshape(3, 4)), got.reshape(3, 4))
    run(np.array([1.5, 3.0, 8.0, 1.0 + 1e-9]))
    assert cost == sum(nodes)
    dead = run(np.array([np.nan, 0.0]))
    assert np.isnan(dead[0]) and dead[1] == 0.0 and nodes == []


def _step(x, owner):
    # 1 left of a jump that each integral places at its own point.
    return np.where(x < _jump(owner), 1.0, 0.0) * np.exp(-x)


def _jump(owner):
    return 0.3 + 0.001 * owner


def _split_at_jumps(lo, hi, owner):
    # The segments cut at their integrals' jumps, as a caller declares them.
    jump = _jump(owner)
    inside = (lo < jump) & (jump < hi)
    return (np.concatenate([lo, jump[inside]]),
            np.concatenate([np.where(inside, jump, hi), hi[inside]]),
            np.concatenate([owner, owner[inside]]))


def test_cut_is_exact_at_a_segment_end_and_warns_inside_one():
    # A step that ends a segment is smooth on both sides: one pair each.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for jump in (0.3, 0.77, 1e-6, 1.0 - 1e-6):
            got = rules._cut(lambda x, _: np.where(x < jump, 1.0, 0.0),
                             np.array([0.0, jump]), np.array([jump, 1.0]),
                             np.array([0, 0]), 1, epsrel=1e-10)
            assert got[0] == pytest.approx(jump, rel=1e-14)
        got = rules._cut(lambda x, _: np.where(x < 1.45, np.exp(-x), 0.0),
                         np.array([0.0, 1.0, 1.45]),
                         np.array([1.0, 1.45, 2.0]), np.array([0, 0, 0]), 1,
                         epsrel=1e-10)
        assert got[0] == pytest.approx(-np.expm1(-1.45), rel=1e-14)
    # Nothing looks for a step that no segment ends at.
    with pytest.warns(IntegrationWarning, match="did not converge"):
        got = _cut_at_an_undeclared_step()
    assert got[0] == pytest.approx(0.3, abs=1e-2)


def _cut_at_an_undeclared_step():
    return rules._cut(lambda x, _: np.where(x < 0.3, 1.0, 0.0),
                      np.array([0.0]), np.array([1.0]), np.array([0]), 1,
                      epsrel=1e-10)


@pytest.mark.filterwarnings("error")
def test_cut_segment_is_the_same_alone_or_among_many():
    # 500 integrals, half of them smooth on one segment and half with a
    # step that splits theirs in two: each keeps the bits it has alone.
    size = 500
    rng = np.random.default_rng(11)
    lo = rng.uniform(0.0, 0.25, size)
    hi = lo + rng.uniform(0.5, 1.5, size)
    owner = np.arange(size)
    step = owner % 2 == 1
    lo, hi, owner = (np.concatenate([v[~step], w]) for v, w in zip(
        (lo, hi, owner), _split_at_jumps(lo[step], hi[step], owner[step])))

    def f(x, owner):
        return np.where(owner % 2, _step(x, owner), _smooth(x, owner))

    got = rules._cut(f, lo, hi, owner, size, epsrel=1e-10)
    assert got[1] == pytest.approx(np.exp(-lo[owner == 1].min())
                                   - np.exp(-0.301), rel=1e-14)
    for i in range(0, size, 7):
        mine = owner == i
        alone = rules._cut(lambda x, o: f(x, o + i), lo[mine], hi[mine],
                           0 * owner[mine], 1, epsrel=1e-10)
        assert alone[0] == got[i], i


@pytest.mark.filterwarnings("error")
def test_complex_row_with_zero_imaginary_part_is_the_real_row():
    lo, hi, owner = _split_at_jumps(np.array([0.0, 0.4, 1.0]),
                                    np.array([0.4, 1.0, 3.0]),
                                    np.array([0, 0, 1]))
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


@pytest.mark.parametrize("make, text", [
    (lambda mp: _doubled_at_its_cap(), "did not converge: its pair"),
    (lambda mp: _cut_at_an_undeclared_step(),
     "did not converge: its segments"),
], ids=["doubled", "cut"])
def test_unconverged_rules_warn_under_the_tier1_filter(monkeypatch, make,
                                                       text):
    with pytest.warns(IntegrationWarning, match=text) as seen:
        make(monkeypatch)
    filters = _tier1_error_filters()
    assert filters
    for w in seen:
        assert any(re.match(f, str(w.message), re.I) for f in filters)
