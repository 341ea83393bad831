"""Monte Carlo ground truth for the analytic densities.

Sampling is exact and embarrassingly simple: draw K i.i.d. variables, sort
them in decreasing order, and form the requested partial sums.  Everything
analytic in this package must survive comparison against these samples.

Rows come in streams of ``_CHUNK``, each drawn from a counter-based
generator keyed by (seed, stream index), so a run is reproducible bit for
bit and its layout depends only on the sample count; streams run in index
order.  Within a stream the rows are drawn, sorted and summed in blocks of
``_BLOCK``, consecutive draws from the stream's generator, which give the
bits of one draw of the whole stream.  Each block's sums go straight into
the result, and a histogram bins each block as it is drawn, so beyond its
result a run holds O(``_BLOCK`` K) values: O(n groups) memory for
``sample_partial_sums``, O(bins) for ``empirical_density`` of a spec.
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
# Rows of one block: the (rows, K) sample and its temporaries stay near
# 2**13 * K entries, as the node arrays of ``kernels`` do.
_BLOCK = 2 ** 13
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


def _sorted_blocks(dist, K, n, seed):
    """Yield ``(start, x)`` in row order: the rows ``start`` onward of the
    run, K draws each sorted in decreasing order, as a (rows, K) view.
    """
    for stream, first in enumerate(range(0, n, _CHUNK)):
        rng = _stream_rng(seed, stream)
        end = min(first + _CHUNK, n)
        for lo in range(first, end, _BLOCK):
            x = dist.sample(rng, (min(_BLOCK, end - lo), K))
            x.sort(axis=1)
            yield lo, x[:, ::-1]


def sample_sorted(dist, K, n_samples, seed):
    """n_samples rows of K draws each, sorted in decreasing order."""
    out = np.empty((n_samples, K))
    for lo, x in _sorted_blocks(dist, K, n_samples, seed):
        out[lo:lo + len(x)] = x
    return out


def _group_sums(x, cols, out=None):
    # One column of ``out`` per group, its ranks added one at a time in
    # rank order (``sample_partial_sums``).
    out = np.empty((len(x), len(cols))) if out is None else out
    for gi, idx in enumerate(cols):
        col = out[:, gi]
        np.copyto(col, x[:, idx[0]])
        for c in idx[1:]:
            col += x[:, c]
    return out


def _cols(spec):
    return [np.asarray(g, dtype=int) - 1 for g in spec.partition.groups]


def sample_partial_sums(spec):
    """(n_samples, n_groups) matrix of the requested partial sums.

    A group's sum adds its ranks to each row one at a time, in rank
    order, so a row has the same bits whatever the number of rows.
    """
    cols = _cols(spec)
    out = np.empty((spec.n_samples, len(cols)))
    for lo, x in _sorted_blocks(spec.dist, spec.K, spec.n_samples,
                                spec.seed):
        _group_sums(x, cols, out[lo:lo + len(x)])
    return out


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
    Accepts either a SampleSpec, whose rows are binned block by block as
    they are drawn and never held together, or a ready sample matrix.
    The counts are those of ``np.histogramdd`` over the whole matrix.
    """
    edges = [np.linspace(lo, hi, nb + 1) for lo, hi, nb in bin_spec]
    if isinstance(spec_or_samples, SampleSpec):
        spec = spec_or_samples
        cols = _cols(spec)
        n = spec.n_samples
        chunks = (_group_sums(x, cols) for _, x in _sorted_blocks(
            spec.dist, spec.K, n, spec.seed))
    else:
        samples = np.atleast_2d(np.asarray(spec_or_samples, dtype=float))
        if samples.shape[0] == 1 and samples.shape[1] > 1 and \
                len(bin_spec) == 1:
            samples = samples.T
        n, chunks = samples.shape[0], (samples,)
    counts = np.zeros([nb for _, _, nb in bin_spec], dtype=np.int64)
    for sums in chunks:
        counts += np.histogramdd(sums, bins=edges)[0].astype(np.int64)
    return EmpiricalDensity(dim=len(edges), bins=tuple(edges),
                            counts=counts, n=n)


def empirical_cdf(samples, points):
    """P(all coordinates <= point), one value per row of ``points``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(points.shape[0])
    for i, pt in enumerate(points):
        out[i] = np.mean(np.all(samples <= pt, axis=1))
    return out


def ks_distance(samples, analytic_cdf):
    """Kolmogorov-Smirnov sup-distance of 1-D samples against a CDF.

    The CDF sees the sorted samples in blocks of ``_BLOCK``: a vectorized
    one gets each block in one call, any other one value at a time.
    """
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    n = s.size
    above = below = -np.inf
    for lo in range(0, n, _BLOCK):
        v = s[lo:lo + _BLOCK]
        try:
            f = np.asarray(analytic_cdf(v), dtype=float)
            if f.shape != v.shape:
                raise TypeError
        except (TypeError, ValueError):
            f = np.array([float(analytic_cdf(x)) for x in v])
        k = np.arange(lo, lo + v.size)
        above = np.maximum(above, np.max((k + 1) / n - f))
        below = np.maximum(below, np.max(f - k / n))
    return float(max(above, below))


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
