"""The reduced densities on coordinate arrays: rows of one rule.

T3, T4, T5 and T6 take their points as arrays that broadcast, and a single
point is the same code on one row; so does generic T1, whose points are
the rows of one Bromwich-line inversion.  These tests hold the array forms to
the single-point forms bit for bit (each row of a rule sums alone), and
every family to one rule for non-finite coordinates.
"""

import functools
import math

import numpy as np
import pytest

from ordstat import exact_exp, generic_joint as gj, reductions, rules
from ordstat.distributions import Exponential, HalfNormal
from ordstat.mc_oracle import sample_sorted
from ordstat.partition import t5_case

EXP = Exponential(1.0)
HN = HalfNormal(1.0)


@functools.lru_cache(maxsize=None)
def _mean_point(dist, K, Ks, head, rest):
    # Mean of (sum of ranks in head, sum of ranks in rest), best Ks of K.
    best = sample_sorted(dist, K, 4000, seed=5)[:, :Ks]
    return (float(best[:, [i - 1 for i in head]].sum(axis=1).mean()),
            float(best[:, [i - 1 for i in rest]].sum(axis=1).mean()))


def _grid(x0, y0):
    # 2-D arrays around (x0, y0): the mean point, two near it, one with a
    # negative x, and two far off that lie outside some supports.
    x = x0 * np.array([[1.0, 0.8, 1.25], [-0.3, 1.1, 0.95]])
    y = y0 * np.array([[1.0, 1.15, 0.85], [1.0, 4.0, 0.25]])
    return x, y


def _one_vs_rest(dist, K, Ks, m):
    rest = tuple(i for i in range(1, Ks + 1) if i != m)
    return _grid(*_mean_point(dist, K, Ks, (m,), rest))


def _head_tail(dist, K, Ks, m):
    return _grid(*_mean_point(dist, K, Ks, tuple(range(1, m + 1)),
                              tuple(range(m + 1, Ks + 1))))


def _check_rows(values, point, x, y, support):
    """``values(x, y)`` against ``point`` at each element, with points on
    both sides of the support, bit for bit."""
    inside = np.asarray(support(x, y))
    assert inside.sum() >= 2 and (~inside).sum() >= 1
    got = values(x, y)
    assert got.shape == x.shape
    want = np.array([point(float(a), float(b))
                     for a, b in zip(x.ravel(), y.ravel())]).reshape(x.shape)
    assert want[0, 0] > 0 and np.all(want[~inside] == 0)
    assert np.all(got >= 0)
    np.testing.assert_array_equal(got, want)
    # A scalar x against an array of y.
    row = values(x[0, 0], y[0])
    assert row.shape == y[0].shape
    np.testing.assert_array_equal(row, values(np.full(3, x[0, 0]), y[0]))
    for empty in (np.array([]), np.empty((0, 3))):
        assert values(empty, empty).shape == empty.shape


# -- exact path --

EXACT_KS = {4: 4, 5: 5, 10: 8, 30: 27}


@pytest.mark.parametrize("K", sorted(EXACT_KS))
@pytest.mark.parametrize("m", [1, 2])
def test_exact_t3_rows(K, m):
    # m == 1 is the rank-1 T2 joint, one formula.
    jd = exact_exp.HeadTailAllK(K, m, 1.0)
    x, y = _head_tail(EXP, K, K, m)
    _check_rows(jd.values, jd, x, y, jd.support)


def _t5_ms(Ks):
    # Every case of t5_case: d with m == 1 only where Ks == 2.
    return sorted({1, 2, Ks // 2, Ks - 1, Ks})


@pytest.mark.parametrize("K", sorted(EXACT_KS))
def test_exact_t5_rows_every_case_and_order(K):
    Ks = EXACT_KS[K]
    cases = set()
    for m in _t5_ms(Ks):
        jd = exact_exp.BestKsOneVsRest(K, Ks, m, 1.0)
        cases.add(jd.case)
        x, y = _one_vs_rest(EXP, K, Ks, m)
        orders = (0, 1, 2) if jd.case in "abc" else (0,)
        for order in orders:
            rows = functools.partial(jd.reduce_to_2d, order=order)
            _check_rows(rows, rows, x, y, jd.support)
    assert cases == set("abcd")


@pytest.mark.parametrize("K", sorted(EXACT_KS))
def test_exact_t6_rows(K):
    Ks = EXACT_KS[K]
    for m in sorted({1, 2, Ks - 1}):
        jd = exact_exp.BestKsHeadTail(K, Ks, m, 1.0)
        x, y = _head_tail(EXP, K, Ks, m)
        _check_rows(jd.values, jd, x, y, jd.support)


def test_exact_t4_rows():
    for K, Ks in ((5, 1), (5, 3), (30, 27)):
        pdf = exact_exp.GscSum(K, Ks, 1.0)
        x = Ks * np.array([[0.5, -1.0, 1.0], [2.0, 0.0, 3.5]])
        got = pdf.values(x)
        assert got.shape == x.shape
        want = np.array([pdf(v) for v in x.ravel().tolist()])
        np.testing.assert_array_equal(got.ravel(), want)
        assert pdf.values(np.empty((0, 2))).shape == (0, 2)


# -- generic path --

GENERIC = [(HN, 5, 5), (EXP, 6, 5)]
GENERIC_IDS = ["halfnormal-K5", "exp-K6"]


@pytest.mark.parametrize("dist,K,Ks", GENERIC, ids=GENERIC_IDS)
def test_generic_t3_rows(dist, K, Ks):
    # m == 1 is the rank-1 T2 joint, as the rows of one kernel-power
    # inverse.
    for m in (1, 2, 3):
        x, y = _head_tail(dist, K, K, m)
        rows = functools.partial(gj.t3_jpdf, dist, K, m)
        _check_rows(rows, rows, x, y,
                    functools.partial(reductions.t3_support, K, m))


@pytest.mark.parametrize("dist,K,Ks", GENERIC, ids=GENERIC_IDS)
def test_generic_t5_rows_every_case_and_order(dist, K, Ks):
    cases = set()
    for m in range(1, Ks + 1):
        case = t5_case(Ks, m)
        cases.add(case)
        x, y = _one_vs_rest(dist, K, Ks, m)
        support = functools.partial(reductions.t5_support, Ks, m)
        rows = functools.partial(gj.t5_jpdf, dist, K, Ks, m)
        _check_rows(rows, rows, x, y, support)
        fine = reductions.t5_fine(gj._FINES, K, Ks, m, dist)
        for order in (1, 2) if case in "abc" else ():
            rows = functools.partial(reductions.t5, fine, Ks, m,
                                     order=order)
            _check_rows(rows, rows, x, y, support)
    assert cases == set("abcd")


@pytest.mark.parametrize("dist,K,Ks", GENERIC, ids=GENERIC_IDS)
def test_generic_t6_rows(dist, K, Ks):
    for m in (1, 2, Ks - 1):
        x, y = _head_tail(dist, K, Ks, m)
        rows = functools.partial(gj.t6_jpdf, dist, K, Ks, m)
        _check_rows(rows, rows, x, y,
                    functools.partial(reductions.t6_support, Ks, m))


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
@pytest.mark.parametrize("K", [2, 5, 30])
def test_generic_t1_rows(dist, K):
    # The rows of one Bromwich-line inversion: 0 and 1e-9 are below its
    # resolution, the others around the mean of the sum.
    mean = K * dist.mean
    z = np.concatenate([[0.0, 1e-9, -0.3, NAN, INF],
                        mean * np.array([0.6, 0.85, 1.0, 1.2, 1.5])])
    got = gj.t1_pdf(dist, K, z)
    assert got.shape == z.shape
    want = np.array([gj.t1_pdf(dist, K, v) for v in z.tolist()])
    np.testing.assert_array_equal(got, want)
    assert np.all(got[5:] > 0) and np.all(got[[0, 1, 2, 4]] == 0.0)
    assert np.isnan(got[3])
    np.testing.assert_array_equal(gj.t1_pdf(dist, K, z.reshape(2, 5)),
                                  want.reshape(2, 5))
    for empty in (np.array([]), np.empty((0, 3))):
        assert gj.t1_pdf(dist, K, empty).shape == empty.shape


# -- empty batches --


def test_gauss_knots_without_rows_calls_nothing():
    def f(x, r):
        raise AssertionError("no rows, no nodes")

    for exact in (True, False):
        got = rules._gauss_knots(f, np.array([]), np.array([]),
                                 np.empty((0, 2)), deg=3, exact=exact)
        assert got.shape == (0,)
    assert exact_exp.pdf_gsc_sum(5, 3, 1.0).values(np.array([])).shape == (0,)


# -- non-finite coordinates: nan gives nan, inf gives 0, no rule runs --

NAN, INF = math.nan, math.inf
# (point, density) for the two-coordinate families; a nan wins over an
# infinite coordinate.
NON_FINITE_2D = [((NAN, 1.0), NAN), ((1.0, NAN), NAN), ((INF, 1.0), 0.0),
                 ((1.0, INF), 0.0), ((-INF, 1.0), 0.0), ((1.0, -INF), 0.0),
                 ((INF, INF), 0.0), ((NAN, INF), NAN)]
NON_FINITE_1D = [((NAN,), NAN), ((INF,), 0.0), ((-INF,), 0.0)]


def _exact_families(K=5):
    # Every family, T5 case and T6 side size at Ks = K-1 (T1 at K-1).
    Ks = K - 1
    return {
        "T1": exact_exp.ErlangSum(K - 1, 1.0),
        "T2": exact_exp.OneVsRestAllK(K, 2, 1.0),
        "T3m1": exact_exp.HeadTailAllK(K, 1, 1.0),
        "T3": exact_exp.HeadTailAllK(K, 2, 1.0),
        "T4Ks1": exact_exp.GscSum(K, 1, 1.0),
        "T4": exact_exp.GscSum(K, 3, 1.0),
        **{f"T5{t5_case(Ks, m)}": exact_exp.BestKsOneVsRest(K, Ks, m, 1.0)
           for m in (1, 2, Ks - 1, Ks)},
        **{f"T6m{m}": exact_exp.BestKsHeadTail(K, Ks, m, 1.0)
           for m in (1, 2, Ks - 1)},
    }


def _generic_families(dist=EXP):
    return {
        "T1": functools.partial(gj.t1_pdf, dist, 4),
        "T2": functools.partial(gj.t2_jpdf, dist, 5, 2),
        "T3m1": functools.partial(gj.t3_jpdf, dist, 5, 1),
        "T3": functools.partial(gj.t3_jpdf, dist, 5, 2),
        "T4Ks1": functools.partial(gj.t4_pdf, dist, 5, 1),
        "T4": functools.partial(gj.t4_pdf, dist, 5, 3),
        **{f"T5{t5_case(4, m)}": functools.partial(gj.t5_jpdf, dist, 5, 4, m)
           for m in range(1, 5)},
        **{f"T6m{m}": functools.partial(gj.t6_jpdf, dist, 5, 4, m)
           for m in range(1, 4)},
    }


def _same(got, want):
    return math.isnan(want) and math.isnan(got) or got == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path", ["exact", "generic"])
def test_non_finite_points_follow_one_rule(path):
    families = _exact_families() if path == "exact" else _generic_families()
    assert len(families) == 13
    for name, fn in families.items():
        cases = NON_FINITE_1D if name.startswith(("T1", "T4")) \
            else NON_FINITE_2D
        for point, want in cases:
            got = fn(*point)
            assert _same(float(got), want), (name, point, got)


@pytest.mark.filterwarnings("error")
def test_non_finite_elements_of_arrays():
    # The same rule element by element, next to a finite point inside the
    # support, which keeps its single-point value.
    for name, jd in _exact_families().items():
        if name.startswith(("T1", "T4")):
            cases, inner = NON_FINITE_1D, (2.0,)
        else:
            cases = NON_FINITE_2D
            inner = next(p for p in ((1.0, 1.5), (3.5, 0.7), (0.5, 4.0))
                         if jd(*p) > 0)
        pts = np.array([p for p, _ in cases] + [inner]).T
        got = jd.values(*pts)
        assert got.shape == (len(cases) + 1,)
        for g, (_, want) in zip(got.tolist(), cases):
            assert _same(g, want), name
        assert got[-1] == jd(*inner)


# -- far coordinates: the density underflows, and 0 comes back --

FAR = [1e3, 1e10, 1e50, 1e100, 1e308]


def _far_points(dim):
    # Each axis far in turn from the point of ones, and all at once.
    for big in FAR:
        for axis in range(dim):
            yield tuple(big if i == axis else 1.0 for i in range(dim))
        yield (big,) * dim


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["exact-5", "exact-10", "exact-30",
                                    "generic-exp", "generic-halfnormal"])
def test_far_points_give_zero(family):
    # On the exact path a power of a far coordinate overflows while
    # exp(-S) underflows; generic T1 inverts a transform and is not
    # covered.
    path, arg = family.split("-")
    if path == "exact":
        families = _exact_families(int(arg))
    else:
        families = _generic_families({"exp": EXP, "halfnormal": HN}[arg])
        del families["T1"]
    for name, fn in families.items():
        dim = 1 if name.startswith(("T1", "T4")) else 2
        for point in _far_points(dim):
            assert fn(*point) == 0.0, (name, point)
        pts = np.array(list(_far_points(dim))).T
        assert np.all(fn(*pts) == 0.0), name


# -- resolve: a grid is one call of the family, on both paths --

# (id, K, Ks, m) of every family and T5 case, with T3 at m = 1 (the rank-1
# T2 joint) and m = 2.
SHAPES = [("T1", 4, 4, None), ("T2", 5, 5, 1), ("T2", 5, 5, 3),
          ("T3", 5, 5, 1), ("T3", 5, 5, 2), ("T4", 5, 1, None),
          ("T4", 5, 3, None), ("T5a", 5, 4, 1), ("T5b", 6, 5, 2),
          ("T5c", 5, 4, 3), ("T5d", 5, 4, 4), ("T6", 5, 4, 1),
          ("T6", 5, 4, 2)]
EXACT_CLASSES = {"T1": "ErlangSum", "T2": "OneVsRestAllK",
                 "T3": "HeadTailAllK", "T4": "GscSum",
                 "T5": "BestKsOneVsRest", "T6": "BestKsHeadTail"}


def _counted(monkeypatch, owner, name, calls):
    # Count the calls of ``owner.name`` under the key ``name``.
    fn = getattr(owner, name)

    def counted(*a, **k):
        calls[name] = calls.get(name, 0) + 1
        return fn(*a, **k)
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("path", ["exact", "generic"])
def test_resolve_evaluates_a_grid_in_one_call(monkeypatch, path):
    from ordstat.partition import TheoremMatch
    calls = {}
    for fam, cls in EXACT_CLASSES.items():
        if path == "exact":
            _counted(monkeypatch, getattr(exact_exp, cls), "values",
                     calls.setdefault(fam, {}))
        else:
            name = f"t{fam[1]}_pdf" if fam in ("T1", "T4") \
                else f"t{fam[1]}_jpdf"
            _counted(monkeypatch, gj, name, calls.setdefault(fam, {}))
    x = np.array([[0.6, 1.2], [2.5, 3.0]])
    for sid, K, Ks, m in SHAPES:
        fn, dim = gj.resolve(TheoremMatch(sid, K, Ks, m), EXP, path)
        for c in calls.values():
            c.clear()
        got = fn(*(x, 2.0 * x.T)[:dim])
        assert got.shape == x.shape and np.all(np.isfinite(got))
        assert list(calls[sid[:2]].values()) == [1], sid
