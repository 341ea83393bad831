"""Sampling oracle: determinism, ordering, grouping, histogram statistics."""

import numpy as np
import pytest

from ordstat import exact_exp, mc_oracle as mc
from ordstat.distributions import Exponential
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
