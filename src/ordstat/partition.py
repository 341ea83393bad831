"""Groupings of rank indices into partial sums, and their normalization.

A :class:`Partition` says which ranks (1 = largest) go into which requested
partial sum.  Joint MGFs only exist in closed form for contiguous runs of
ranks with the rank-Ks variable kept separate when Ks < K, so
:func:`normalize` rewrites a partition into that finer shape and records
which fine sums must be integrated back together.  :func:`match_theorem`
reports which closed evaluator family covers a two-group (or one-group)
request; anything else raises :class:`UnsupportedShapeError` with a hint.

Everything here is pure bookkeeping over small integer sets; the actual
densities live in ``exact_exp`` and ``generic_joint``.
"""

import re
from dataclasses import dataclass, field

from ordstat.errors import DomainError, UnsupportedShapeError

__all__ = [
    "Partition",
    "NormalizedPartition",
    "TheoremMatch",
    "normalize",
    "dimension_of",
    "match_theorem",
    "t5_case",
]

_PART_RE = re.compile(r"^K=(\d+);Ks=(\d+);groups=((?:\[[-0-9,]+\])+)$")
_GROUP_RE = re.compile(r"\[([^]]*)\]")


def _runs(ranks):
    """Maximal contiguous runs of a sorted rank tuple, as (lo, hi) pairs."""
    out = []
    lo = prev = ranks[0]
    for r in ranks[1:]:
        if r == prev + 1:
            prev = r
        else:
            out.append((lo, prev))
            lo = prev = r
    out.append((lo, prev))
    return out


@dataclass(frozen=True)
class Partition:
    """Requested grouping: ``groups[i]`` holds the ranks summed into output i.

    Ranks are 1-based and count from the largest value down; the groups
    must be disjoint and cover 1..Ks exactly.
    """

    K: int
    Ks: int
    groups: tuple

    def __post_init__(self):
        if not (isinstance(self.K, int) and isinstance(self.Ks, int)):
            raise DomainError("K and Ks must be integers")
        if not 1 <= self.Ks <= self.K:
            raise DomainError("need 1 <= Ks <= K")
        canon = tuple(tuple(sorted(set(map(int, g)))) for g in self.groups)
        if not canon or any(not g for g in canon):
            raise DomainError("groups must be nonempty")
        flat = [r for g in canon for r in g]
        if len(flat) != len(set(flat)):
            raise DomainError("groups must be disjoint")
        if set(flat) != set(range(1, self.Ks + 1)):
            raise DomainError("groups must cover ranks 1..Ks exactly")
        object.__setattr__(self, "groups", canon)

    @classmethod
    def parse(cls, text):
        """Parse the compact form ``K=10;Ks=8;groups=[1-3][4-6][7-8]``.

        Each bracket is one group: comma-separated ranks or inclusive
        ``a-b`` ranges.
        """
        m = _PART_RE.match(text.strip())
        if not m:
            raise DomainError(f"cannot parse partition {text!r}; expected "
                              "K=<n>;Ks=<n>;groups=[..][..]")
        K, Ks = int(m.group(1)), int(m.group(2))
        groups = []
        for body in _GROUP_RE.findall(m.group(3)):
            ranks = []
            for item in body.split(","):
                item = item.strip()
                if not item:
                    raise DomainError(f"empty item in group [{body}]")
                lo, sep, hi = item.partition("-")
                if sep:
                    a, b = int(lo), int(hi)
                    if b < a:
                        raise DomainError(f"descending range {item!r}")
                    ranks.extend(range(a, b + 1))
                else:
                    ranks.append(int(item))
            groups.append(tuple(ranks))
        return cls(K, Ks, tuple(groups))

    def format(self):
        """Inverse of :meth:`parse`, with each group in canonical run form."""
        parts = []
        for g in self.groups:
            items = [str(a) if a == b else f"{a}-{b}" for a, b in _runs(g)]
            parts.append("[" + ",".join(items) + "]")
        return f"K={self.K};Ks={self.Ks};groups={''.join(parts)}"


@dataclass(frozen=True)
class NormalizedPartition:
    """Fine contiguous grouping plus the plan to recover the requested sums.

    ``fine_groups`` are contiguous rank runs ordered by smallest rank;
    ``reduction_plan`` lists ``(fine_indices, requested_index)`` for every
    requested group assembled from two or more fine sums (each such merge
    costs one finite integration); ``separated_last`` records that rank Ks
    was isolated because Ks < K.
    """

    K: int
    Ks: int
    fine_groups: tuple
    reduction_plan: tuple
    separated_last: bool
    sources: tuple = field(repr=False, default=())

    def as_partition(self):
        """The fine grouping viewed as a partition in its own right."""
        return Partition(self.K, self.Ks, self.fine_groups)


def normalize(p):
    """Split groups into contiguous runs, isolating rank Ks when Ks < K."""
    runs = []
    for gi, g in enumerate(p.groups):
        for lo, hi in _runs(g):
            if p.Ks < p.K and hi == p.Ks and lo < p.Ks:
                runs.append((lo, p.Ks - 1, gi))
                runs.append((p.Ks, p.Ks, gi))
            else:
                runs.append((lo, hi, gi))
    runs.sort()
    fine = tuple(tuple(range(lo, hi + 1)) for lo, hi, _ in runs)
    by_group = {}
    for fi, (_, _, gi) in enumerate(runs):
        by_group.setdefault(gi, []).append(fi)
    plan = tuple((tuple(fis), gi) for gi, fis in sorted(by_group.items())
                 if len(fis) > 1)
    return NormalizedPartition(p.K, p.Ks, fine, plan, p.Ks < p.K,
                               sources=tuple(gi for _, _, gi in runs))


def dimension_of(np_):
    """Number of fine groups = dimension of the joint MGF to build."""
    return len(np_.fine_groups)


@dataclass(frozen=True)
class TheoremMatch:
    """Which closed evaluator family covers a requested two-sum partition.

    ``id`` is one of T1..T6, with T5 suffixed by its case letter.  ``swap``
    means the requested group order is the reverse of the evaluator's
    argument order (evaluate with swapped arguments).
    """

    id: str
    K: int
    Ks: int
    m: int = None
    swap: bool = False


def t5_case(Ks, m):
    """Case letter of the rank-m vs rest pair of the best Ks; see
    ``reductions.t5``."""
    if m == Ks:
        return "d"
    if m == 1:
        return "d" if Ks == 2 else "a"
    if m == Ks - 1:
        return "c"
    return "b"


def match_theorem(p):
    """Map a partition to the theorem-shaped evaluator that covers it.

    Raises :class:`UnsupportedShapeError` when no family applies; the
    error's ``nearest`` attribute names the closest supported reshaping.
    """
    K, Ks, groups = p.K, p.Ks, p.groups
    all_ranks = set(range(1, Ks + 1))
    if len(groups) == 1:
        if Ks == K:
            return TheoremMatch("T1", K, Ks)
        return TheoremMatch("T4", K, Ks)
    if len(groups) == 2:
        ga, gb = groups
        # Singleton vs everything else: the one-vs-rest family.
        for swap, (one, rest) in enumerate([(ga, gb), (gb, ga)]):
            if len(one) == 1 and set(rest) == all_ranks - set(one):
                m = one[0]
                if Ks == K:
                    return TheoremMatch("T2", K, Ks, m, bool(swap))
                return TheoremMatch("T5" + t5_case(Ks, m), K, Ks, m,
                                    bool(swap))
        # Head run vs tail run: the partial-sums family.
        for swap, (head, tail) in enumerate([(ga, gb), (gb, ga)]):
            m = len(head)
            if head == tuple(range(1, m + 1)) and \
                    tail == tuple(range(m + 1, Ks + 1)):
                if Ks == K:
                    return TheoremMatch("T3", K, Ks, m, bool(swap))
                return TheoremMatch("T6", K, Ks, m, bool(swap))
        raise UnsupportedShapeError(
            f"two-group partition {p.format()!r} is neither one-vs-rest nor "
            "head-vs-tail",
            nearest="isolate a single rank (one vs rest) or split into a "
                    "leading and a trailing run of ranks (head vs tail)")
    merged = Partition(K, Ks, (groups[0], tuple(r for g in groups[1:]
                                                for r in g)))
    try:
        hint = match_theorem(merged)
        nearest = (f"merge groups 2..{len(groups)} to get "
                   f"{merged.format()!r} ({hint.id})")
    except UnsupportedShapeError:
        nearest = "reduce the request to one or two groups"
    raise UnsupportedShapeError(
        f"no closed evaluator covers {len(groups)} simultaneous partial "
        f"sums (partition {p.format()!r}); densities of more than two sums "
        "require the normalized fine decomposition plus finite "
        "reintegration, which is out of scope",
        nearest=nearest)
