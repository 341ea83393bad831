"""Sampling oracle: determinism, ordering, grouping, histogram statistics."""

import tracemalloc

import numpy as np
import pytest

from ordstat import exact_exp, mc_oracle as mc
from ordstat.distributions import Exponential, HalfNormal
from ordstat.errors import DomainError
from ordstat.partition import Partition

EXP = Exponential(1.0)


def spec(text, n, seed=7):
    p = Partition.parse(text)
    return mc.SampleSpec(EXP, p.K, p.Ks, p, n, seed)


def test_sample_sorted_shape_and_order():
    x = mc.sample_sorted(EXP, 5, 400, seed=3)
    assert x.shape == (400, 5)
    assert np.all(np.diff(x, axis=1) <= 0)
    assert np.all(x >= 0)


def test_sample_sorted_deterministic():
    a = mc.sample_sorted(EXP, 4, 1000, seed=11)
    b = mc.sample_sorted(EXP, 4, 1000, seed=11)
    assert np.array_equal(a, b)
    c = mc.sample_sorted(EXP, 4, 1000, seed=12)
    assert not np.array_equal(a, c)


def test_stream_split_invariant():
    # The stream layout depends only on n, so a big run starts with the
    # small run's rows.
    small = mc.sample_sorted(EXP, 3, 500, seed=5)
    big = mc.sample_sorted(EXP, 3, 2000, seed=5)
    assert np.array_equal(big[:500], small)


def test_multi_chunk_run_extends_one_chunk_run():
    # Several chunks plus a ragged tail: streams are concatenated in index
    # order, so the run starts with the one-chunk run and goes on with new
    # draws.
    chunk = 1 << 17
    one = mc.sample_partial_sums(spec("K=4;Ks=3;groups=[1-2][3]", chunk))
    many = mc.sample_partial_sums(spec("K=4;Ks=3;groups=[1-2][3]",
                                       2 * chunk + 123))
    assert many.shape == (2 * chunk + 123, 2)
    assert np.array_equal(many[:chunk], one)
    assert not np.array_equal(many[chunk:2 * chunk], one)


def test_partial_sums_match_sorted_rows():
    p = Partition.parse("K=5;Ks=4;groups=[1,3][2,4]")
    s = mc.SampleSpec(EXP, 5, 4, p, 256, 9)
    sums = mc.sample_partial_sums(s)
    rows = mc.sample_sorted(EXP, 5, 256, seed=9)
    assert sums.shape == (256, 2)
    assert np.allclose(sums[:, 0], rows[:, 0] + rows[:, 2])
    assert np.allclose(sums[:, 1], rows[:, 1] + rows[:, 3])


def test_spec_validation():
    p = Partition.parse("K=4;Ks=3;groups=[1-3]")
    with pytest.raises(DomainError):
        mc.SampleSpec(EXP, 5, 3, p, 10, 0)
    with pytest.raises(DomainError):
        mc.SampleSpec(EXP, 4, 3, p, 0, 0)


def test_empirical_density_mass_and_density():
    s = spec("K=3;Ks=3;groups=[1-3]", 200_000)
    emp = mc.empirical_density(s, [(0.0, 12.0, 60)])
    assert emp.counts.sum() <= s.n_samples
    # Total mass inside the box approximates the Erlang mass there.
    mass = emp.density().sum() * emp.bin_volume
    want = exact_exp.pdf_sum_all(3, 1.0).cdf(12.0)
    assert mass == pytest.approx(want, abs=3e-3)


def test_empirical_density_accepts_raw_samples():
    x = np.array([0.5, 1.5, 2.5, 2.6])
    emp = mc.empirical_density(x, [(0.0, 3.0, 3)])
    assert emp.counts.tolist() == [1, 1, 2]
    assert emp.n == 4


def test_empirical_cdf():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    got = mc.empirical_cdf(x, [[1.5, 1.5], [0.5, 0.5]])
    assert got.tolist() == [2 / 3, 1 / 3]


def test_ks_distance_against_true_cdf():
    pdf = exact_exp.pdf_sum_all(4, 1.0)
    n = 50_000
    x = mc.sample_partial_sums(spec("K=4;Ks=4;groups=[1-4]", n, seed=21))
    d = mc.ks_distance(x[:, 0], pdf.cdf)
    assert d * np.sqrt(n) < 1.95
    # A wrong CDF must be flagged.
    wrong = exact_exp.pdf_sum_all(3, 1.0)
    assert mc.ks_distance(x[:, 0], wrong.cdf) * np.sqrt(n) > 10


def test_ks_distance_scalar_cdf_callable():
    x = np.linspace(0.01, 0.99, 99)
    d = mc.ks_distance(x, lambda v: min(max(float(v), 0.0), 1.0))
    assert d < 0.02


def test_bin_agreement_flags_good_and_bad():
    # Bins must stay fine enough that Poisson noise, not the bin-average
    # curvature bias, sets the 3-sigma scale.
    n = 400_000
    s = spec("K=4;Ks=4;groups=[2][1,3-4]", n, seed=31)
    emp = mc.empirical_density(s, [(0.0, 3.5, 30), (0.0, 9.0, 30)])
    jd = exact_exp.jpdf_one_vs_rest_allK(4, 2, 1.0)
    ok, seen = mc.bin_agreement(emp, jd.values, support=jd.support)
    assert seen > 20
    assert ok / seen >= 0.95
    bad, seen2 = mc.bin_agreement(emp, lambda a, b: 1.3 * jd.values(a, b),
                                  support=jd.support)
    assert bad / seen2 < 0.5


def test_bin_agreement_excludes_straddling_bins():
    # Support corner checks drop bins crossing the density's edges.
    n = 50_000
    s = spec("K=3;Ks=3;groups=[1][2-3]", n, seed=41)
    emp = mc.empirical_density(s, [(0.0, 3.0, 10), (0.0, 6.0, 10)])
    jd = exact_exp.jpdf_one_vs_rest_allK(3, 1, 1.0)
    _, seen_all = mc.bin_agreement(emp, jd.values)
    _, seen_supported = mc.bin_agreement(emp, jd.values, support=jd.support)
    assert seen_supported < seen_all


def _whole_stream_sums(dist, part, n, seed, draw):
    # The reference of the blocked sampler: each stream drawn, sorted and
    # summed in one go, by ``draw(rng, size)``, and the streams
    # concatenated.
    cols = [np.asarray(g) - 1 for g in part.groups]
    out = []
    for stream, first in enumerate(range(0, n, mc._CHUNK)):
        x = draw(mc._stream_rng(seed, stream),
                 (min(mc._CHUNK, n - first), part.K))
        x.sort(axis=1)
        x = x[:, ::-1]
        out.append(np.stack([np.add.reduce(x[:, c], axis=1) for c in cols],
                            axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("dist, draw", [
    (Exponential(1.7), lambda rng, size: -1.7 * np.log(1.0 - rng.random(size))),
    (HalfNormal(0.6), lambda rng, size: 0.6 * np.abs(rng.standard_normal(size))),
])
@pytest.mark.parametrize("text", ["K=5;Ks=4;groups=[1,3][2,4]",
                                  "K=12;Ks=11;groups=[1-10][11]"])
def test_blocked_sums_equal_whole_stream_sums(dist, draw, text):
    # Blocks of consecutive draws give the bits of one draw per stream,
    # the in-place samplers those of their one-expression forms, and a
    # stream's lone leftover row is summed with its block.
    p = Partition.parse(text)
    n = 2 * mc._CHUNK + 123
    got = mc.sample_partial_sums(mc.SampleSpec(dist, p.K, p.Ks, p, n, 4))
    np.testing.assert_array_equal(got, _whole_stream_sums(dist, p, n, 4,
                                                          draw))


def test_row_sums_do_not_depend_on_n():
    # A group of 10 ranks folds left to right in a block of several rows,
    # whatever the row count; n = 1 is a one-row stream, summed pairwise
    # (``sample_partial_sums``), so the runs start at two rows.
    p = Partition.parse("K=12;Ks=11;groups=[1-10][11]")
    runs = [mc.sample_partial_sums(mc.SampleSpec(EXP, 12, 11, p, n, 13))
            for n in (2, mc._BLOCK + 1, 2 * mc._CHUNK + 123)]
    for run in runs[:-1]:
        np.testing.assert_array_equal(run, runs[-1][:len(run)])
    rows = mc.sample_sorted(EXP, 12, mc._BLOCK + 1, seed=13)
    fold = rows[:, 0].copy()
    for j in range(1, 10):
        fold += rows[:, j]
    np.testing.assert_array_equal(runs[1][:, 0], fold)


def test_blocked_histogram_counts_equal_whole_histogram():
    p = Partition.parse("K=4;Ks=4;groups=[2][1,3-4]")
    s = mc.SampleSpec(EXP, 4, 4, p, 2 * mc._CHUNK + 123, 31)
    bins = [(0.0, 3.5, 30), (0.0, 9.0, 20)]
    got = mc.empirical_density(s, bins)
    want, _ = np.histogramdd(mc.sample_partial_sums(s),
                             bins=[np.linspace(*b[:2], b[2] + 1)
                                   for b in bins])
    np.testing.assert_array_equal(got.counts, want.astype(np.int64))
    assert got.counts.dtype == np.int64 and got.n == s.n_samples


@pytest.mark.parametrize("n", [1, 3 * mc._BLOCK + 5])
def test_blocked_ks_distance_equals_whole_formula(n):
    cdf = exact_exp.pdf_sum_all(3, 1.0).cdf
    x = mc.sample_partial_sums(spec("K=3;Ks=3;groups=[1-3]", n, seed=5))
    s = np.sort(x[:, 0])
    f = cdf(s)
    want = max(np.max(np.arange(1, n + 1) / n - f),
               np.max(f - np.arange(n) / n))
    assert mc.ks_distance(x[:, 0], cdf) == want
    assert mc.ks_distance(x[:, 0], lambda v: float(cdf(v))) == want


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_memory_is_bounded():
    # Beyond its result a run holds one block of rows; a histogram of a
    # spec holds no sample matrix at all.
    p = Partition.parse("K=5;Ks=4;groups=[1,3][2,4]")
    s = mc.SampleSpec(EXP, 5, 4, p, 200_000, 3)
    result = 200_000 * 2 * 8
    assert _traced_peak(lambda: mc.sample_partial_sums(s)) < 1.5 * result
    assert _traced_peak(lambda: mc.empirical_density(
        s, [(0.0, 6.0, 30), (0.0, 6.0, 30)])) < 1 << 20
