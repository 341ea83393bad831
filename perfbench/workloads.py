"""Workload definitions: the fixed job each workload runs, built from a seed.

A job is a list of operations.  Each operation is one ``ordstat`` command
line handed to ``ordstat.cli.main``, plus the shape metadata the checker
needs to pick a reference.  The seed jitters grid offsets and extents
by a few percent and picks ``m`` where a cell's cost does not depend
strongly on it, so that the cost of a job stays nearly the same from seed
to seed while its inputs differ.

Importing this module imports nothing from ``ordstat``: the worker builds
its inputs after ``import ordstat.cli``, and the set-up time it reports
covers both.
"""

import random
from dataclasses import dataclass

WORKLOADS = ("exact_tab", "generic_tab", "verify_quick")

# ``ordstat verify`` seeds for verify_quick; the run seed picks one.  The
# quick-profile suites draw random configurations whose cost depends on
# the seed: over seeds 1-16 one verify took 8-32 s at reference speed,
# far more than any bound on wall time could absorb.  These four, the CLI
# default 42 among them, took 15.3-15.9 s (mean of two or three runs).
VERIFY_SEEDS = (2, 3, 10, 42)


@dataclass(frozen=True)
class Op:
    """One ``ordstat`` invocation and what it computes.

    ``group`` is the timing bucket (a family id without the T5 case,
    ``msgsc`` or ``verify``); ``tid`` keeps the T5 case.  ``grid`` holds
    ``(lo, hi, n)`` per axis as written on the command line.
    """

    id: str
    group: str
    argv: tuple
    path: str = ""
    dist: str = ""
    tid: str = ""
    K: int = 0
    Ks: int = 0
    m: int = 0
    grid: tuple = ()

    @property
    def n_points(self):
        n = 1
        for _, _, count in self.grid:
            n *= count
        return n


def _num(v):
    return format(v, ".6g")


def _axis(lo, hi, n):
    return (float(_num(lo)), float(_num(hi)), n)


def _tab_op(path, dist, tid, K, Ks, m, grid):
    fam = tid[:2]
    argv = ["tabulate", "--dist", dist, "--method", path,
            "--theorem", fam, "--K", str(K)]
    if fam in ("T4", "T5", "T6"):
        argv += ["--Ks", str(Ks)]
    if fam == "T5":
        argv += ["--case", tid[2]]
    op_id = f"{path}/{dist.split(':')[0]}/{tid}/K{K}"
    if fam in ("T2", "T3", "T6") or tid == "T5b":
        argv += ["--m", str(m)]
        op_id += f"/m{m}"
    for lo, hi, n in grid:
        argv += ["--grid", f"{_num(lo)}:{_num(hi)}:{n}"]
    return Op(id=op_id, group=fam, argv=tuple(argv),
              path=path, dist=dist, tid=tid, K=K, Ks=Ks, m=m, grid=grid)


def _shapes(rng, K, Ks, sizes, m_choices):
    """Grids for every family at one (K, Ks), in units of the mean.

    ``sizes[tid]`` is the point count per axis and ``m_choices[tid]`` a
    list of values of ``m``.  For T2 and T3, whose cost hardly depends on
    ``m``, the seed picks one; T5b and T6 get a grid for every value, so
    that their cost, which does depend on ``m``, is the same for every
    seed.  Each rectangle covers the
    region where the density has most of its mass, so a share of every
    2-D grid lies outside the support wedge, as in real tabulations.
    """
    j = lambda: rng.uniform(0.95, 1.05)
    o = lambda: rng.uniform(0.0, 0.05)
    out = []
    n = sizes["T1"]
    out.append(("T1", 0, ((0.2 * K * j(), 2.0 * K * j(), n),)))

    m = rng.choice(m_choices["T2"])
    n = sizes["T2"]
    hi1 = 3.0 * j()
    out.append(("T2", m, ((0.05 + o(), hi1, n),
                          (0.0, ((m - 1) * hi1 + 1.2 * (K - m + 1)) * j(),
                           n))))

    m = rng.choice(m_choices["T3"])
    n = sizes["T3"]
    out.append(("T3", m, ((m * (0.6 + o()), 3.0 * m * j(), n),
                          ((K - m) * (0.15 + o()), 1.2 * (K - m) * j(), n))))

    n = sizes["T4"]
    out.append(("T4", 0, ((0.5 * Ks * j(), 2.5 * Ks * j(), n),)))

    n = sizes["T5a"]
    out.append(("T5a", 1, ((1.0 + o(), 6.0 * j(), n),
                           (0.5 * Ks * j(), 1.6 * Ks * j(), n))))
    n = sizes["T5b"]
    for m in m_choices["T5b"]:
        out.append(("T5b", m, ((0.2 + o(), 2.4 * j(), n),
                               ((m - 1) * 0.4 + 0.5 * (Ks - m) * j(),
                                (m - 1) * 2.4 + 1.5 * (Ks - m) * j(), n))))
    n = sizes["T5c"]
    out.append(("T5c", Ks - 1, ((0.1 + o(), 2.0 * j(), n),
                                ((Ks - 2) * 0.3 * j(), (Ks - 2) * 2.0 + 2.0,
                                 n))))
    n = sizes["T5d"]
    out.append(("T5d", Ks, ((0.05 + o(), 1.5 * j(), n),
                            ((Ks - 1) * 0.2 * j(), (Ks - 1) * 1.5 + 3.0 * j(),
                             n))))

    n = sizes["T6"]
    for m in m_choices["T6"]:
        if n == 2:
            # One point per second or more: the grid's corner at x = 0
            # and the far y row both lie outside the support wedge, which
            # leaves one point to evaluate.
            out.append(("T6", m, ((0.0, 2.5 * m * j(), n),
                                  ((Ks - m) * (0.4 + o()),
                                   3.0 * (Ks - m) * j(), n))))
        else:
            out.append(("T6", m, ((m * (0.8 + o()), 2.5 * m * j(), n),
                                  ((Ks - m) * (0.4 + o()),
                                   2.0 * (Ks - m) * j(), n))))
    return out


# Points per axis for each (family, K) cell of exact_tab.  Exact T5b and T6
# at K >= 20 cost 0.2-2 s per point, so their grids are the smallest that
# tabulate at all; the closed forms get the most points.  T5b at K = 10 and
# T6 at K = 5, 10 tabulate two values of m, on two grids of this size.
_EXACT_SIZES = {
    5: dict(T1=64, T2=16, T3=8, T4=16, T5a=8, T5b=6, T5c=8, T5d=8, T6=6),
    10: dict(T1=64, T2=16, T3=6, T4=16, T5a=8, T5b=3, T5c=8, T5d=8, T6=3),
    20: dict(T1=64, T2=16, T3=4, T4=16, T5a=6, T5b=2, T5c=8, T5d=8, T6=2),
    30: dict(T1=64, T2=16, T3=3, T4=16, T5a=6, T5b=2, T5c=8, T5d=8, T6=2),
}


def _exact_tab(rng):
    ops = []
    for K in (5, 10, 20, 30):
        Ks = max(4, K - 3)
        # At K >= 20 a T5b or T6 point costs 0.2-2 s and up to 35% more
        # or less with m, so there m stays at 3 and the seed only moves
        # the grid.
        m_choices = {
            "T2": list(range(1, K + 1)),
            "T3": [2, 3],
            "T5b": [2] if Ks == 4 else [3] if K >= 20 else [2, 3],
            "T6": [2, 3] if Ks == 4 else [3] if K >= 20 else [3, 4],
        }
        for tid, m, grid in _shapes(rng, K, Ks, _EXACT_SIZES[K], m_choices):
            grid = tuple(_axis(*a) for a in grid)
            ops.append(_tab_op("exact", "exp:1", tid, K, Ks, m, grid))
    for L in (4, 8, 16):
        gt = 0.5 * L * rng.uniform(0.9, 1.1)
        grid = (_axis(0.2 * gt, 3.0 * gt, 24),)
        argv = ("msgsc", "--L", str(L), "--gamma-t", _num(gt),
                "--grid", "{}:{}:{}".format(*(_num(v) for v in grid[0])))
        ops.append(Op(id=f"msgsc/L{L}", group="msgsc", argv=argv,
                      path="exact", dist="exp:1", tid="msgsc", K=L,
                      grid=grid))
    return ops


_GENERIC_SIZES = {
    4: dict(T1=16, T2=4, T3=4, T4=8, T5a=4, T5b=4, T5c=4, T5d=6, T6=4),
    5: dict(T1=16, T2=3, T3=3, T4=6, T5a=3, T5b=3, T5c=3, T5d=6, T6=3),
    6: dict(T1=16, T2=2, T3=2, T4=4, T5a=3, T5b=3, T5c=3, T5d=6, T6=3),
}


def _generic_tab(rng):
    # A generic point costs several times more at one m than at another
    # (T2 at K=6: 0.3 s against 0.07 s), so each (K, family) cell deals
    # its m values out to the two distributions in seeded order: every
    # seed pays for each value once.
    dists = (("halfnormal:1", 0.7978845608028654), ("exp:1", 1.0))
    deals = {}
    for K in (4, 5, 6):
        Ks = 4 if K == 4 else K - 1
        choices = {"T2": [2, 3], "T3": [2, 3], "T5b": [2],
                   "T6": [2] if Ks == 4 else [2, 3]}
        deals[K] = {f: rng.sample(c, len(c)) for f, c in choices.items()}
    ops = []
    for i, (dist, scale) in enumerate(dists):
        for K in (4, 5, 6):
            Ks = 4 if K == 4 else K - 1
            m_choices = {f: [c[i % len(c)]] for f, c in deals[K].items()}
            for tid, m, grid in _shapes(rng, K, Ks, _GENERIC_SIZES[K],
                                        m_choices):
                grid = tuple(_axis(lo * scale, hi * scale, n)
                             for lo, hi, n in grid)
                ops.append(_tab_op("generic", dist, tid, K, Ks, m, grid))
        for K in (10, 20, 30):
            grid = (_axis(0.3 * K * scale * rng.uniform(0.95, 1.05),
                          2.0 * K * scale * rng.uniform(0.95, 1.05), 16),)
            ops.append(_tab_op("generic", dist, "T1", K, K, 0, grid))
    return ops


def _verify_quick(rng):
    seed = rng.choice(VERIFY_SEEDS)
    return [Op(id="verify/quick", group="verify",
               argv=("verify", "--seed", str(seed), "--json", "-"))]


def build(workload, seed):
    """The operations of ``workload`` for ``seed``, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {"exact_tab": _exact_tab, "generic_tab": _generic_tab,
            "verify_quick": _verify_quick}[workload](rng)
