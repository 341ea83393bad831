"""Fixed quadrature rules and ``_doubled``, the one n/2n loop that sizes them.

``_doubled`` runs a batch of integrals on a *pair rule*, whose call at n
gives a coarse and a fine estimate of each: per integral, n doubles until
the two agree, and the integrals that have converged stop.  It sizes the
rules of the reductions of fine densities, of ``verify``'s normalization
integrals, of the MS-GSC stages of ``apps``, of the kernel-power inverses
of ``generic_joint`` and of the brute-force oracle of ``kernels``.

``_gauss_knots`` integrates rows that each have their own limits and
knots; ``_cut`` integrates unions of segments that its caller has cut at
the integrand's jumps and kinks (the kernels of a custom density).  Both
run ``_segments``, which sums each segment alone (``_row_sums``), so an
integral has the same bits alone or in any batch.  ``_gauss_2d``
integrates two-level regions without knots, with a product per row and
one row per distinct upper limit, so a batch whose limits repeat pays
for each region once.  Their pair is the n-node Gauss-Legendre rule G_n
nested in the (2n+1)-node Kronrod rule K_{2n+1} (``_kronrod``): one
evaluation on 2n+1 nodes gives both, and K_{2n+1} is the value.  A row
that converges at the first pair costs 2n+1 nodes per segment, where the
n- and 2n-node Gauss pair cost 3n.  The multi-level rules of
``generic_joint`` and ``kernels`` keep the Gauss pair of n and 2n nodes,
through ``_paired``, which reuses each call's 2n-node estimate as the
next call's n-node one: their levels multiply the node count, so at
depth d a Kronrod pair costs (2n+1)^d nodes against n^d + (2n)^d.
Integrals that Gauss-Legendre rules leave open at their cap go on with
tanh-sinh rules, also paired n/2n, whose nodes crowd both segment ends:
a density singular at 0, like x^(a-1), puts such an end on a rule.
``_segments`` takes the odd ones.
"""

import functools
import warnings

import numpy as np

from ordstat.errors import ConvergenceError, IntegrationWarning

_EPSABS = 1e-9
_EPSREL = 1e-8
_SMOOTH_EXTRA = 3  # nodes beyond the exact count, for the smooth factor
_MAX_NODES = 128   # per knot segment, on Gauss-Legendre rules
# Integrals still open at their Gauss-Legendre cap go on with tanh-sinh
# rules from the first of these node counts per segment, up to the second.
_TANH_SINH_NODES = (16, 256)
# Nodes per call of an integrand, whose temporaries are arrays of that
# many nodes: an exact fine density, step sum included, makes a handful.
# Where the integrand is a batch of inner rules (generic T6), each of
# its nodes is an inner row, with edge and segment arrays of a few entries
# per inner knot, so the peak memory of a block grows with this times the
# inner knot count.  Each segment sums alone, so the block changes no value.
_BLOCK = 2 ** 10
# Nodes per call of a ``_gauss_2d`` integrand, whole rows at a time (a row
# of the pair of n has (2n + 1)^2 nodes).  Its integrands have no step sum.
_BLOCK_2D = 2 ** 13
# Half-width of the tanh-sinh rules in their own variable: the outermost
# nodes sit 6e-38 = exp(-pi*sinh(4)) of a segment from its ends, so the
# part of an x^(a-1) end singularity that they miss is about (6e-38)^a of
# the segment's integral, below 1e-12 for a >= 1/3.
_TANH_SINH_SPAN = 4.0
_CUT_FIRST = 8


def _read_only(*arrays):
    # Rules are shared by every caller.
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _legendre(n):
    return _read_only(*np.polynomial.legendre.leggauss(n))


def _jacobi_kronrod(n):
    """Diagonal ``a`` and squared subdiagonal ``b[1:]`` of the Jacobi-Kronrod
    matrix of order 2n+1 for the Legendre weight on [-1, 1], ``b[0] = 2``
    its mass.  Its eigenvalues are the nodes of K_{2n+1}.  Laurie,
    "Calculation of Gauss-Kronrod quadrature rules", Math. Comp. 66
    (1997): the first ceil(3n/2) + 1 coefficients are Legendre's, and the
    rest follow from mixed moments, in the two loops below."""
    a, b = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    k = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[0], b[1:k.size + 1] = 2.0, k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[l] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1]
                             - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        else:
            a[k + n + 1] = (a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2])
                            / t[j + 2])
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


@functools.lru_cache(maxsize=None)
def _kronrod(n):
    """The nested pair of G_n and K_{2n+1} on [-1, 1], as ``(x, wg, wk)``.

    ``x`` holds the 2n+1 Kronrod nodes in ascending order, ``wg`` the
    weights of the embedded Gauss rule (0 at the Kronrod-only nodes
    ``x[::2]``) and ``wk`` those of the Kronrod rule, of degree 3n+1.  As
    in Golub and Welsch's method, the nodes are the eigenvalues of
    ``_jacobi_kronrod(n)`` and the weights 2 times the squared first
    components of its eigenvectors, both made symmetric, with the weights
    scaled to sum to 2, as ``leggauss`` does.  Those components come from
    a recurrence and not from ``eigh``, whose eigenvector path touches a
    megabyte more memory.  The Gauss nodes ``x[1::2]`` and weights
    ``wg[1::2]`` are ``_legendre(n)``'s, so the coarse member is G_n to
    the bit.
    """
    a, b = _jacobi_kronrod(n)
    c = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(c[1:], -1))
    # The orthonormal polynomials of the matrix at its eigenvalues, by its
    # three-term recurrence from p_0 = 1: the first component of each
    # eigenvector is 1 / sqrt(sum p_k^2).
    p0, p1, norm = 0.0, 1.0, 1.0
    for k in range(2 * n):
        p0, p1 = p1, ((x - a[k]) * p1 - c[k] * p0) / c[k + 1]
        norm = norm + p1 * p1
    x, wk = 0.5 * (x - x[::-1]), 1.0 / norm + 1.0 / norm[::-1]
    wk *= b[0] / wk.sum()
    wg = np.zeros_like(wk)
    x[1::2], wg[1::2] = _legendre(n)
    return _read_only(x, wg, wk)


# Rules on [0, 1] as ``(dl, dr, w)``: nodes at distance ``dl`` from the
# left end and ``dr = 1 - dl`` from the right, both without cancellation.
# ``generic_joint`` evaluates a factor whose argument vanishes at a
# segment end (a pdf at 0, which may be singular there) at that distance,
# never at the end.  ``_gauss_knots`` places nodes at ``dl``, so a
# singular left end, such as a rank-Ks value of 0, is never evaluated.

@functools.lru_cache(maxsize=None)
def _gauss01(n):
    x, w = _legendre(n)
    return 0.5 * (1.0 + x), 0.5 * (1.0 - x), 0.5 * w


@functools.lru_cache(maxsize=None)
def _tanh_sinh01(n):
    """n-node tanh-sinh rule: the trapezoidal rule in tau of
    x = tanh(pi/2 sinh(tau)).  Its nodes crowd both ends doubly
    exponentially, so it keeps its pace on integrable end singularities,
    where a Gauss-Legendre rule converges only algebraically."""
    tau = np.linspace(-_TANH_SINH_SPAN, _TANH_SINH_SPAN, n)
    y = 0.5 * np.pi * np.sinh(tau)
    dl, dr = 1.0 / (1.0 + np.exp(-2.0 * y)), 1.0 / (1.0 + np.exp(2.0 * y))
    return dl, dr, (tau[1] - tau[0]) * np.pi * np.cosh(tau) * dl * dr


def _semi_infinite(lo, scale, u, w):
    """Nodes ``u`` on [0, 1) mapped onto [lo, inf) by
    ``x = lo + scale*u/(1 - u)``, and their weights ``w`` times dx/du."""
    return lo + scale * u / (1.0 - u), scale * w / (1.0 - u) ** 2


def _gauss_knots(f, lo, hi, knots=(), *, deg, exact=True):
    """Integrals of ``f`` over ``[lo, hi]``, on knot segments.

    ``lo`` and ``hi`` are arrays (or scalars) that broadcast, one integral
    per element (a row), with ``knots`` an array of ``(rows, k)`` points,
    or of k points for scalar limits; the result has their shape.  No rows
    give an empty array, and ``f`` is not called.  Each row's knots are
    clipped into its interval and sorted; empty segments (and rows with
    ``hi <= lo``) get no nodes.  ``f(x, row)`` maps a flat array of nodes,
    and the index array of the row of each, to an array of values, on the
    rules of ``_segments``.

    Between knots the integrand is a polynomial of degree ``deg``
    (``exact``), or such a polynomial times a smooth factor.  The
    ``deg // 2 + 1``-node Gauss-Legendre rule integrates the polynomial
    exactly, so exact rows take that rule alone.  Otherwise each row runs
    the Gauss-Kronrod pair from n = ``_SMOOTH_EXTRA`` nodes higher, and n
    doubles per row as ``_doubled`` says, at ``_EPSABS``/``_EPSREL``; rows
    still open at ``_MAX_NODES`` go on with tanh-sinh rules.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    shape, rows = lo.shape, lo.size
    if not rows:
        return np.zeros(shape)
    knots = np.asarray(knots, dtype=float).reshape(rows, -1)
    edges = np.empty((rows, knots.shape[1] + 2))
    edges[:, 0], edges[:, -1] = lo.ravel(), np.maximum(hi, lo).ravel()
    np.minimum(np.maximum(knots, edges[:, :1]), edges[:, -1:],
               out=edges[:, 1:-1])
    edges.sort(axis=1)
    lo, hi = edges[:, 0], edges[:, -1]
    keep = edges[:, 1:] > edges[:, :-1]
    row, col = np.nonzero(keep)
    cols = keep.shape[1]
    gauss, kronrod, tanh_sinh = _segments(
        f, edges[:, :-1][keep], edges[:, 1:][keep], row, row, col, cols)
    n = deg // 2 + 1
    if exact:
        total = gauss(n, np.arange(rows)).sum(axis=1)
    else:
        total = _doubled(kronrod, n + _SMOOTH_EXTRA, lo, hi, _EPSABS,
                         _EPSREL, then=tanh_sinh)
    return total.reshape(shape)[()]


def _segments(f, left, right, arg, row, col, cols):
    """The rules ``(n, todo)`` of integrals over segments: the n-node
    Gauss-Legendre rule, the Gauss-Kronrod pair of ``_kronrod`` and the
    ``_paired`` odd tanh-sinh rules of n + 1 nodes (the even ones of n and
    2n share a gap at the middle of a segment).

    Segment j, ``[left[j], right[j]]``, is column ``col[j]`` of the
    ``cols`` of integral ``row[j]``; ``f(x, a)`` maps a flat array of
    nodes, and the ``arg[j]`` of each one's segment, to real or complex
    values.  A rule calls ``f`` on the segments of the integrals ``todo``
    in blocks of whole segments and at most ``_BLOCK`` nodes, and sums
    each segment alone (``_row_sums``).
    """
    width = right - left
    mid, half = 0.5 * (right + left), 0.5 * width

    def block(b, s, a, t, w):
        vals = f((b[:, None] + s[:, None] * t).ravel(), np.repeat(a, t.size))
        vals = vals.reshape(s.size, t.size)
        return np.stack([_row_sums(vals, wi) for wi in w]) * s

    def on(table, base, scale):
        # The rule of ``table(n) = (t, *w)`` at nodes base + scale * t: a
        # ``(len(todo), cols)`` page of estimates per weight array in w.
        def rule(n, todo):
            t, *w = table(n)
            # Segments of the integrals in todo (it ascends), and their places.
            at = np.searchsorted(todo, row)
            seg = np.flatnonzero(todo.take(at, mode="clip") == row)
            at, b, s, a = at[seg], base[seg], scale[seg], arg[seg]
            k = max(1, _BLOCK // t.size)
            est = [block(b[i:i + k], s[i:i + k], a[i:i + k], t, w)
                   for i in range(0, s.size, k)]
            est = (np.concatenate(est, axis=1) if est
                   else np.zeros((len(w), 0)))
            out = np.zeros((len(w), todo.size, cols), dtype=est.dtype)
            out[:, at, col[seg]] = est
            return out
        return rule

    gauss, kronrod = on(_legendre, mid, half), on(_kronrod, mid, half)
    # Tanh-sinh nodes at their distance from the left end, ``dl``.
    tanh_sinh = on(lambda n: _tanh_sinh01(n + 1)[::2], left, width)
    return (lambda n, todo: gauss(n, todo)[0],
            lambda n, todo: (*kronrod(n, todo), 2 * n + 1),
            _paired(lambda n, todo: tanh_sinh(n, todo)[0]))


def _gauss_2d(f, lo, hi, inner, *, deg, epsabs, epsrel):
    """Integrals of ``f(s, v)`` over ``lo <= s <= hi``, ``v`` in ``inner(s)``.

    ``hi`` is a float, which gives one integral and a float, or an array of
    upper limits, which gives one integral per element (0 where ``hi <=
    lo``, nan where ``hi`` is nan) and an array of its shape.  ``inner``
    maps an array of outer nodes to the arrays ``(a, b)`` of their inner
    limits.  A row is fixed by its upper limit, as ``lo`` is a scalar and
    ``inner`` and ``f`` see only the nodes: each distinct limit above
    ``lo`` is one row of one rule, and its value goes to every element
    with that limit.  The integrand is smooth in ``s`` and, in ``v``, a
    polynomial of degree ``deg`` times a smooth factor, with no knot on
    either level.  The pair of n puts the 2n+1 Kronrod nodes of
    ``_kronrod`` on ``s`` in each row and maps the same 2n+1 onto each
    ``[a, b]``; ``f`` gets the ``(rows, 2n+1, 2n+1)`` node arrays of the
    open rows, in blocks of whole rows and at most ``_BLOCK_2D`` nodes
    where a row has fewer.  The value is the Kronrod product rule, and the
    coarse estimate the Gauss product rule on the embedded n x n subgrid
    of the same values.  n starts as in ``_gauss_knots`` and doubles per
    row, on both levels, as ``_doubled`` says.  A value that is not finite raises :class:`ConvergenceError`.
    """
    top = np.asarray(hi, dtype=float)
    out = np.where(top <= lo, 0.0, np.nan)
    live = top > lo
    his, where = np.unique(top[live], return_inverse=True)
    mid, half = 0.5 * (his + lo), 0.5 * (his - lo)

    def block(x, wg, wk, rows):
        s = mid[rows, None] + half[rows, None] * x
        a, b = inner(s)
        vmid, vhalf = 0.5 * (b + a), 0.5 * (b - a)
        vals = f(s[..., None], vmid[..., None] + vhalf[..., None] * x)

        def product(vals, vhalf, w):
            # A dot product per row, as (1, n) @ (n, 1): unlike one matrix
            # product over the rows, it rounds as the rule of that row
            # alone.
            sums = (vhalf * (vals @ w))[:, None, :]
            return half[rows] * (sums @ w[:, None])[:, 0, 0]

        g = slice(1, None, 2)   # the Gauss nodes
        return (product(vals[:, g, g], vhalf[:, g], wg[g]),
                product(vals, vhalf, wk))

    def rule(n, todo):
        x, wg, wk = _kronrod(n)
        k = max(1, _BLOCK_2D // x.size ** 2)
        est = np.concatenate([block(x, wg, wk, todo[i:i + k])
                              for i in range(0, todo.size, k)], axis=1)
        bad = np.flatnonzero(~np.isfinite(est).all(axis=0))
        if bad.size:
            raise ConvergenceError(
                f"{x.size}x{x.size}-node rule on [{lo:g}, "
                f"{his[todo[bad[0]]]:g}] gave {est[1, bad[0]]}")
        return est[0][:, None], est[1][:, None], x.size

    if his.size:
        out[live] = _doubled(rule, deg // 2 + 1 + _SMOOTH_EXTRA,
                             np.full(his.size, lo), his, epsabs,
                             epsrel)[where]
    return out if out.ndim else float(out)


def _cut(f, lo, hi, owner, size, *, epsrel):
    """Integrals over unions of segments, each smooth inside.

    Segment j, ``[lo[j], hi[j]]``, adds to integral ``owner[j]`` of the
    ``size`` returned; ``f(x, owner)`` maps a flat array of nodes, and the
    integral of each, to real or complex values.  Each segment runs the
    rules of ``_segments`` as an integral of its own: the Gauss-Kronrod
    pairs from n = ``_CUT_FIRST``, then tanh-sinh rules, to ``epsrel``
    relative.  An integral warns when the differences of its segments
    left open sum past ``epsrel`` of its value: judged alone, a tiny tail
    segment would.  The caller cuts the segments at every jump and kink of
    ``f``, as QUADPACK's QAGP takes its break points from its caller
    (Piessens et al., *QUADPACK*, 1983); one left inside a segment slows
    its rules, or goes unseen where a pair agrees by chance.
    """
    s = np.arange(lo.size)
    _, kronrod, tanh_sinh = _segments(f, lo, hi, owner, s, 0 * s, 1)
    val, off, nodes = _doubling(kronrod, s.size, 0.0, epsrel, _CUT_FIRST,
                                _MAX_NODES, tanh_sinh)
    out = _sums(owner, val, size)
    errors = np.bincount(owner, off, minlength=size)
    open_ = ~(errors <= epsrel * np.abs(out))
    if open_.any():
        i = int(np.argmax(np.where(open_[owner], off, 0.0)))
        warnings.warn(
            f"{nodes}-node rule on [{lo[i]:g}, {hi[i]:g}] did not converge: "
            f"its segments differ by {errors[owner[i]]:.3g}",
            IntegrationWarning, stacklevel=3)
    return out


def _row_sums(vals, w):
    """Each row of ``vals`` times the weights ``w``, summed on its own (a
    matrix product would round each row by its batch); the real part of a
    complex row sums as a real row would."""
    if np.iscomplexobj(vals):
        return _row_sums(vals.real, w) + 1j * _row_sums(vals.imag, w)
    return np.einsum("ij,j->i", np.ascontiguousarray(vals), w)


def _sums(index, val, size):
    """The sums of ``val`` per ``index``, each in the order of ``val``."""
    out = np.bincount(index, val.real, minlength=size)
    if np.iscomplexobj(val):
        out = out + 1j * np.bincount(index, val.imag, minlength=size)
    return out


def _paired(rule):
    """The Gauss-style pair rule of ``rule(n, todo)``, a rule with one member.

    ``pair(n, todo)`` gives ``rule``'s n- and 2n-node estimates and 2n, the
    fine member's node count.  Under ``_doubling`` each call runs at twice
    the n of the call before, on a subset of its ``todo``, so the n-node
    estimate is the last call's 2n-node one, and only the first call runs
    ``rule`` twice.
    """
    last = None

    def pair(n, todo):
        nonlocal last
        if last is not None and last[0] == n:
            coarse = last[2][np.searchsorted(last[1], todo)]
        else:
            coarse = rule(n, todo)
        fine = rule(2 * n, todo)
        last = 2 * n, todo, fine
        return coarse, fine, 2 * n
    return pair


def _doubled(rule, n, lo, hi, epsabs, epsrel, cap=None, then=None):
    """The n/2n loop of the fixed rules, over a batch of integrals.

    Integral i runs over ``[lo[i], hi[i]]``.  ``rule(n, todo)`` is a pair
    rule: it returns the coarse and the fine estimates, real or complex, of
    the integrals indexed by the array ``todo`` (a row per integral and a
    column per segment), and the fine member's node count per segment and
    level.  n doubles until an integral's coarse and fine sums agree to
    ``epsabs``/``epsrel``; that integral then stops, and the rule runs on
    the others only.  The array of fine totals is returned, with an
    ``IntegrationWarning`` if that takes ``cap`` (default ``_MAX_NODES``)
    fine nodes per segment and level or more.  ``then``, a pair rule of
    the same kind, takes over the integrals still open at ``cap``, from n =
    ``_TANH_SINH_NODES[0]`` up to the second of those node counts.  Those
    that it leaves open too warn, and keep the estimate of whichever rule
    ended with the smaller difference.
    """
    out, off, nodes = _doubling(rule, len(lo), epsabs, epsrel, n,
                                cap or _MAX_NODES, then)
    if off.any():
        i = int(np.argmax(off))
        warnings.warn(
            f"{nodes}-node rule on [{lo[i]:g}, {hi[i]:g}] did not converge: "
            f"its pair differs by {off[i]:.3g}", IntegrationWarning,
            stacklevel=3)
    return out


def _doubling(rule, size, epsabs, epsrel, n, cap, then=None):
    """``_doubled`` without its warning, and the only n/2n loop.  Returns
    the fine totals, of the rule's dtype, the last differences of the
    integrals still open (0 for the others) and the fine member's last
    node count."""
    todo, off = np.arange(size), np.zeros(size)
    out = None
    while True:
        coarse, fine, nodes = rule(n, todo)
        if out is None:
            out = np.empty(size, dtype=fine.dtype)
        total = fine.sum(axis=1)
        err = np.abs(fine - coarse).sum(axis=1)
        out[todo] = total
        # A nan total leaves the tolerance at epsabs, and a nan error
        # leaves its integral open.
        open_ = ~(err <= np.fmax(epsabs, epsrel * np.abs(total)))
        if not open_.any():
            return out, off, nodes
        if nodes >= cap:
            break
        todo, n = todo[open_], 2 * n
    todo = todo[open_]
    off[todo] = err[open_]
    if then is None:
        return out, off, nodes
    out2, off2, nodes = _doubling(
        lambda n, sub: then(n, todo[sub]), todo.size, epsabs, epsrel,
        *_TANH_SINH_NODES)
    first = off2 >= off[todo]     # the first rule ended closer
    out[todo] = np.where(first, out[todo], out2)
    off[todo] = np.where(first, off[todo], off2)
    return out, off, nodes
