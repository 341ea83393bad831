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

Sorting.  ``np.sort`` along rows of 4 or 5 costs about 40 ns a row,
nearly all of it per-row dispatch.  Up to ``_NETWORK_MAX_K`` ranks a block is copied once into a
rank-major (K + 1, rows) buffer, which every block of a run reuses, and
sorted there by Batcher's odd-even merge network (Batcher, AFIPS 1968):
one ``np.minimum`` and one ``np.maximum`` over contiguous rows per
comparator, O(K log^2 K) of them.  The block comes back as the transposed
view, whose rank columns are contiguous rows for the group sums.  Min and
max return one of their operands, so every row keeps the bits that
``np.sort`` gives it; a block with a NaN or a value at or below 0, where
that can fail, goes to ``np.sort`` instead (``_decreasing``).  Per
block of 2^13 exponential rows, on a 2-core host, ``np.sort`` against the
network took 0.30 against 0.03 ms at K = 2, 0.35 against 0.09 at K = 5,
0.18 against 0.16 at K = 8, 0.38 against 0.38 at K = 12 and 13, 0.46
against 0.62 at K = 14 and 0.52 against 1.56 at K = 30: the comparators
grow as K log^2 K, the sort's dispatch does not, so above the crossover
``np.sort`` stays.

Binning.  ``empirical_density`` puts each value in its bin by the
arithmetic of ``np.histogram``'s uniform bins and one correction against
the edges (``_bin_index``), not by binary search, and counts the flat
bins of a block in one ``np.bincount``; the counts are those of
``np.histogramdd``.
"""

import functools
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
# Blocks of up to this many ranks go through a sorting network, larger
# ones through np.sort (the per-K times are in the module docstring).
_NETWORK_MAX_K = 12


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


def _batcher(n):
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort of n,
    a power of two, in an order that sorts ascending."""
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        yield i + j, i + j + k
            k //= 2
        p *= 2


@functools.lru_cache(maxsize=None)
def _network(K):
    """The sorting network of K ranks on a (K + 1)-row buffer.

    Returns ``(ops, spare)``.  For each ``(i, j, s)`` of ``ops`` the
    network writes ``np.minimum`` of rows i and j into row s and
    ``np.maximum`` into row j, and row i becomes the spare, so no
    comparator copies a row.  The K draws start in every row but
    ``spare``, and the rows 0 to K - 1 end in decreasing order.  Batcher's network is sized to the next
    power of two; the comparators that reach past K are dropped, as they
    would only meet a +inf padding that no comparator moves.
    """
    row, spare, ops = list(range(K)), K, []
    for i, j in _batcher(1 << (K - 1).bit_length()):
        if j < K:
            ops.append((row[i], row[j], spare))
            row[i], spare = spare, row[i]
    name = {r: K - 1 - q for q, r in enumerate(row)}
    name[spare] = K
    return tuple((name[i], name[j], name[s]) for i, j, s in ops), name[K]


def _decreasing(x, network, buf):
    """The rows of the draws ``x`` sorted in decreasing order, as a
    (rows, K) view: by ``network`` in the rank-major ``buf`` if one is
    given and the block passes the check below, else by ``np.sort`` in
    place.

    Min and max return one of their operands, so a row keeps its bits,
    but for two cases: a NaN spreads to every rank it meets, and of two
    zeros of opposite signs, which compare equal, both may come out with
    one sign.  A row with either has a smallest rank that is not above 0,
    so such a block goes to ``np.sort``, as does any block of a law that
    takes values at or below 0.
    """
    if network is not None:
        ops, spare = network
        rows, K = x.shape
        b = buf[:, :rows]
        np.copyto(b[:spare], x[:, :spare].T)
        np.copyto(b[spare + 1:], x[:, spare:].T)
        for i, j, s in ops:
            np.minimum(b[i], b[j], out=b[s])
            np.maximum(b[i], b[j], out=b[j])
        if (b[K - 1] > 0.0).all():
            return b[:K].T
    x.sort(axis=1)
    return x[:, ::-1]


def _sorted_blocks(dist, K, n, seed):
    """Yield ``(start, x)`` in row order: the rows ``start`` onward of the
    run, K draws each sorted in decreasing order, as a (rows, K) view.
    Up to ``_NETWORK_MAX_K`` ranks the view's columns are the contiguous
    rows of one rank-major buffer, which every block reuses.
    """
    network = buf = None
    if 1 < K <= _NETWORK_MAX_K:
        network, buf = _network(K), np.empty((K + 1, min(n, _BLOCK)))
    for stream, first in enumerate(range(0, n, _CHUNK)):
        rng = _stream_rng(seed, stream)
        end = min(first + _CHUNK, n)
        for lo in range(first, end, _BLOCK):
            yield lo, _decreasing(dist.sample(rng, (min(_BLOCK, end - lo),
                                                    K)), network, buf)


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


def _edges(lo, hi, nb):
    """The nb + 1 uniform edges of one axis.  A bin must be wider than
    2^-40 of the larger end, so that the arithmetic of ``_bin_index`` is
    within one bin of the edges."""
    if not (nb >= 1 and (hi - lo) / nb > 2.0 ** -40 * max(abs(lo),
                                                            abs(hi))):
        raise DomainError(f"bins need finite lo < hi, nbins >= 1 and width "
                          f"above 2^-40 of |lo|, |hi|; got ({lo!r}, {hi!r}, "
                          f"{nb!r})")
    return np.linspace(lo, hi, nb + 1)


def _bin_index(v, e):
    """The bin k of each value of ``v`` with e[k] <= v < e[k + 1], the
    last bin closed, as ``np.histogramdd`` finds it; a value outside
    [e[0], e[-1]], or NaN, gets some k in [-1, nb) instead.

    The arithmetic is that of ``np.histogram``'s uniform bins, clamped to
    [0, nb - 1] (NaN to 0), then one step down or up against the edges
    themselves, from which rounding may leave it a bin off.  The step up
    meets +inf in place of the last edge, which closes the last bin.
    """
    nb = e.size - 1
    with np.errstate(over="ignore"):     # far values go to +-inf, clamped
        f = (v - e[0]) * (nb / (e[-1] - e[0]))
    np.fmax(f, 0.0, out=f)
    np.fmin(f, nb - 1, out=f)
    k = f.astype(np.intp)
    k -= v < e[k]
    k += v >= np.append(e[1:-1], np.inf)[k]
    return k


def empirical_density(spec_or_samples, bin_spec):
    """Histogram of sampled partial sums.

    ``bin_spec`` is one (lo, hi, nbins) triple per axis, uniform bins.
    Accepts either a SampleSpec, whose rows are binned block by block as
    they are drawn and never held together, or a ready sample matrix,
    binned in blocks too.  The counts are those of ``np.histogramdd`` over
    the whole matrix: each axis is binned by ``_bin_index``, and one
    ``np.bincount`` counts the flat bin of each row, all rows out of
    range or NaN on some axis in one extra bin that is dropped.
    """
    edges = [_edges(*b) for b in bin_spec]
    if isinstance(spec_or_samples, SampleSpec):
        spec = spec_or_samples
        cols = _cols(spec)
        n = spec.n_samples
        # A row per group, so that each axis is contiguous.
        sums = np.empty((len(cols), min(n, _BLOCK)))
        blocks = (_group_sums(x, cols, sums[:, :len(x)].T)
                  for _, x in _sorted_blocks(spec.dist, spec.K, n,
                                             spec.seed))
        dim = len(cols)
    else:
        samples = np.atleast_2d(np.asarray(spec_or_samples, dtype=float))
        if samples.shape[0] == 1 and samples.shape[1] > 1 and \
                len(bin_spec) == 1:
            samples = samples.T
        n, dim = samples.shape
        blocks = (samples[lo:lo + _BLOCK] for lo in range(0, n, _BLOCK))
    if dim != len(edges):
        raise DomainError(f"{len(edges)} bin axes for {dim}-column samples")
    shape = [e.size - 1 for e in edges]
    total = math.prod(shape)
    counts = np.zeros(total + 1, dtype=np.int64)
    for block in blocks:
        flat = np.zeros(len(block), np.intp)
        keep = np.ones(len(block), bool)
        for v, e in zip(block.T, edges):
            flat *= e.size - 1
            flat += _bin_index(v, e)
            keep &= (v >= e[0]) & (v <= e[-1])
        flat[~keep] = total
        counts += np.bincount(flat, minlength=total + 1)
    return EmpiricalDensity(dim=len(edges), bins=tuple(edges),
                            counts=counts[:total].reshape(shape), n=n)


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
