"""Groupings of rank indices into partial sums, and the theorem that covers
each.

A :class:`Partition` says which ranks (1 = largest) go into which requested
partial sum.  :func:`match_theorem` is the one place that decides which
closed evaluator family covers a two-group (or one-group) request: T1-T3
when all K ranks are used, T4-T6 for the best Ks < K, the T5 case, and
whether the groups come in the evaluator's order.  Anything else raises
:class:`UnsupportedShapeError` with a hint.  :func:`theorem_partition`
turns theorem selectors (family, K, Ks, m) into the partition they name,
so that selectors and partitions resolve alike.

Everything here is pure bookkeeping over small integer sets; the actual
densities live in ``exact_exp`` and ``generic_joint``.
"""

import re
from dataclasses import dataclass

from ordstat.errors import DomainError, UnsupportedShapeError

__all__ = [
    "Partition",
    "TheoremMatch",
    "match_theorem",
    "t5_case",
    "theorem_partition",
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


def theorem_partition(family, K, Ks=None, m=None):
    """The partition that theorem ``family`` (T1..T6) names at (K, Ks, m).

    T1 ``[1..K]``, T2 ``[m][rest]`` and T3 ``[1..m][m+1..K]`` use all K
    ranks, so Ks is K; T4 ``[1..Ks]``, T5 ``[m][rest of 1..Ks]`` and T6
    ``[1..m][m+1..Ks]`` the best Ks.  T1 and T4 take no m.  Errors name
    the command-line flag at fault.
    """
    fam = family.upper()
    if fam not in ("T1", "T2", "T3", "T4", "T5", "T6"):
        raise DomainError(f"unknown theorem {family!r}")
    if K is None:
        raise DomainError(f"{fam} requires --K")
    if fam in ("T1", "T2", "T3"):
        if Ks not in (None, K):
            raise DomainError(f"{fam} uses all K ranks: --Ks {Ks} must "
                              f"equal --K {K} or be left out")
        Ks = K
    elif Ks is None:
        raise DomainError(f"{fam} requires --Ks")
    best = tuple(range(1, Ks + 1))
    if fam in ("T1", "T4"):
        if m is not None:
            raise DomainError(f"{fam} takes no --m")
        return Partition(K, Ks, (best,))
    if m is None:
        raise DomainError(f"{fam} requires --m"
                          + " (or --case)" * (fam == "T5"))
    if fam in ("T2", "T5"):
        groups = ((m,), best[:m - 1] + best[m:])
    else:
        groups = (best[:m], best[m:])
    if not (1 <= m <= Ks and all(groups)):
        raise DomainError(f"{fam} needs two nonempty sums; --m {m} does "
                          f"not split ranks 1..{Ks} into two")
    return Partition(K, Ks, groups)


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
