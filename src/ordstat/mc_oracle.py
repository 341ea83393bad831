"""Monte Carlo ground truth for the analytic densities.

Sampling is exact and embarrassingly simple: draw K i.i.d. variables, sort
them in decreasing order, and form the requested partial sums.  Everything
analytic in this package must survive comparison against these samples.

Streams use a counter-based generator keyed by (seed, stream index), so a
run is reproducible bit for bit and its layout depends only on the sample
count; streams run one after another and are concatenated in index order.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ordstat.errors import DomainError
from ordstat.partition import Partition

__all__ = [
    "SampleSpec",
    "EmpiricalDensity",
    "sample_partial_sums",
    "sample_sorted",
    "empirical_density",
    "empirical_cdf",
    "ks_distance",
    "bin_agreement",
]

_CHUNK = 1 << 17
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SampleSpec:
    """What to sample: distribution, ordering sizes, grouping, volume, seed."""

    dist: object
    K: int
    Ks: int
    partition: Partition
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.partition.K != self.K or self.partition.Ks != self.Ks:
            raise DomainError("partition K/Ks disagree with spec K/Ks")
        if self.n_samples < 1:
            raise DomainError("need n_samples >= 1")


def _stream_rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=[seed & _MASK64, stream]))


def _run_streams(n, worker):
    """Concatenate worker(stream, count) chunks in stream order."""
    jobs = []
    start = 0
    stream = 0
    while start < n:
        count = min(_CHUNK, n - start)
        jobs.append((stream, count))
        start += count
        stream += 1
    return np.concatenate([worker(s, c) for s, c in jobs], axis=0)


def sample_sorted(dist, K, n_samples, seed):
    """n_samples rows of K draws each, sorted in decreasing order."""

    def worker(stream, count):
        rng = _stream_rng(seed, stream)
        x = dist.sample(rng, (count, K))
        x.sort(axis=1)
        return x[:, ::-1]

    return _run_streams(n_samples, worker)


def sample_partial_sums(spec):
    """(n_samples, n_groups) matrix of the requested partial sums.

    A group's sum is ``np.add.reduce`` over its columns in rank order, and
    numpy picks the order of the additions from the memory layout.  A
    stream of several rows adds one rank at a time to every row, a
    left-to-right fold; a stream of one row sums along it pairwise, in
    blocks of 8 for a group of 8 or more ranks.  The last bits of a sum
    are numpy's, not those of one fixed fold.
    """
    cols = [np.asarray(g, dtype=int) - 1 for g in spec.partition.groups]

    def worker(stream, count):
        rng = _stream_rng(spec.seed, stream)
        x = spec.dist.sample(rng, (count, spec.K))
        x.sort(axis=1)
        x = x[:, ::-1]
        out = np.empty((count, len(cols)))
        for gi, idx in enumerate(cols):
            np.add.reduce(x[:, idx], axis=1, out=out[:, gi])
        return out

    return _run_streams(spec.n_samples, worker)


@dataclass(frozen=True)
class EmpiricalDensity:
    """Histogram density estimate with per-bin Poisson standard errors."""

    dim: int
    bins: tuple
    counts: np.ndarray
    n: int

    @property
    def bin_volume(self):
        vol = 1.0
        for edges in self.bins:
            # uniform edges by construction in empirical_density
            vol = vol * (edges[1] - edges[0])
        return vol

    def centers(self, axis):
        e = self.bins[axis]
        return 0.5 * (e[:-1] + e[1:])

    def density(self):
        return self.counts / (self.n * self.bin_volume)

    def stderr(self):
        """Poisson standard error per bin; empty bins get the one-count scale
        (their density estimate is 0 but their uncertainty is not)."""
        return np.sqrt(np.maximum(self.counts, 1)) / (self.n * self.bin_volume)


def empirical_density(spec_or_samples, bin_spec):
    """Histogram of sampled partial sums.

    ``bin_spec`` is one (lo, hi, nbins) triple per axis, uniform bins.
    Accepts either a SampleSpec (sampled here) or a ready sample matrix.
    """
    if isinstance(spec_or_samples, SampleSpec):
        samples = sample_partial_sums(spec_or_samples)
    else:
        samples = np.atleast_2d(np.asarray(spec_or_samples, dtype=float))
        if samples.shape[0] == 1 and samples.shape[1] > 1 and \
                len(bin_spec) == 1:
            samples = samples.T
    edges = [np.linspace(lo, hi, nb + 1) for lo, hi, nb in bin_spec]
    counts, _ = np.histogramdd(samples, bins=edges)
    return EmpiricalDensity(dim=len(edges), bins=tuple(edges),
                            counts=counts.astype(np.int64),
                            n=samples.shape[0])


def empirical_cdf(samples, points):
    """P(all coordinates <= point), one value per row of ``points``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(points.shape[0])
    for i, pt in enumerate(points):
        out[i] = np.mean(np.all(samples <= pt, axis=1))
    return out


def ks_distance(samples, analytic_cdf):
    """Kolmogorov-Smirnov sup-distance of 1-D samples against a CDF."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    n = s.size
    try:
        f = np.asarray(analytic_cdf(s), dtype=float)
        if f.shape != s.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.array([float(analytic_cdf(v)) for v in s])
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - f), np.max(f - lo)))


def bin_agreement(emp, density_values, nsigma=3.0, min_count=5,
                  support=None):
    """(bins agreeing within nsigma, bins considered) for a 1-D/2-D histogram.

    A bin is considered when it holds at least ``min_count`` samples and,
    if ``support`` is given, all its corners satisfy the predicate: the
    histogram estimates a bin average, so bins straddling a support edge
    or density jump are excluded rather than compared against the center
    value.  ``support`` and ``density_values`` (a density's ``values``)
    take coordinate arrays; the centres of all the bins considered go to
    ``density_values`` in one call.
    """
    keep = emp.counts >= min_count
    if support is not None:
        for corner in itertools.product((0, 1), repeat=emp.dim):
            grids = np.meshgrid(*(e[1:] if c else e[:-1]
                                  for e, c in zip(emp.bins, corner)),
                                indexing="ij")
            keep &= support(*grids)
    centres = np.meshgrid(*(emp.centers(a) for a in range(emp.dim)),
                          indexing="ij")
    got = density_values(*(c[keep] for c in centres))
    n_pass = np.abs(got - emp.density()[keep]) <= nsigma * emp.stderr()[keep]
    return int(n_pass.sum()), int(keep.sum())
