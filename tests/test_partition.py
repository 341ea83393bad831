"""Partition parsing, evaluator matching, and theorem selectors."""

import pytest
from hypothesis import given, strategies as st

from ordstat.errors import DomainError, UnsupportedShapeError
from ordstat.partition import Partition, match_theorem, theorem_partition


def test_parse_format_round_trip():
    text = "K=10;Ks=8;groups=[1-3][4-6][7-8]"
    p = Partition.parse(text)
    assert p.K == 10 and p.Ks == 8
    assert p.groups == ((1, 2, 3), (4, 5, 6), (7, 8))
    assert p.format() == text


def test_parse_mixed_items():
    p = Partition.parse("K=6;Ks=6;groups=[1,3-4][2][5-6]")
    assert p.groups == ((1, 3, 4), (2,), (5, 6))
    # Format canonicalizes each group into run form.
    assert p.format() == "K=6;Ks=6;groups=[1,3-4][2][5-6]"


def test_groups_canonicalized():
    p = Partition(5, 5, ((3, 1, 2), (5, 4)))
    assert p.groups == ((1, 2, 3), (4, 5))


@pytest.mark.parametrize("text", [
    "K=4;Ks=2;groups=",
    "K=4;groups=[1-2]",
    "K=4;Ks=2;groups=[2-1]",
    "K=4;Ks=2;groups=[1,]",
    "garbage",
])
def test_parse_rejects(text):
    with pytest.raises(DomainError):
        Partition.parse(text)


def test_constructor_rejects():
    with pytest.raises(DomainError):
        Partition(4, 5, ((1, 2, 3, 4, 5),))       # Ks > K
    with pytest.raises(DomainError):
        Partition(4, 3, ((1, 2), (2, 3)))          # overlap
    with pytest.raises(DomainError):
        Partition(4, 3, ((1, 2),))                 # missing rank 3
    with pytest.raises(DomainError):
        Partition(4, 3, ((1, 2, 3), ()))           # empty group
    with pytest.raises(DomainError):
        Partition(4.0, 3, ((1, 2, 3),))            # non-int K


@pytest.mark.parametrize("text,tid,m,swap", [
    ("K=3;Ks=3;groups=[1-3]", "T1", None, False),
    ("K=5;Ks=3;groups=[1-3]", "T4", None, False),
    ("K=4;Ks=4;groups=[2][1,3-4]", "T2", 2, False),
    ("K=4;Ks=4;groups=[2-4][1]", "T2", 1, True),
    ("K=5;Ks=5;groups=[1-2][3-5]", "T3", 2, False),
    ("K=5;Ks=5;groups=[3-5][1-2]", "T3", 2, True),
    ("K=5;Ks=4;groups=[1][2-4]", "T5a", 1, False),
    ("K=6;Ks=5;groups=[3][1-2,4-5]", "T5b", 3, False),
    ("K=5;Ks=4;groups=[3][1-2,4]", "T5c", 3, False),
    ("K=5;Ks=4;groups=[4][1-3]", "T5d", 4, False),
    ("K=4;Ks=2;groups=[1][2]", "T5d", 1, False),
    ("K=6;Ks=4;groups=[1-2][3-4]", "T6", 2, False),
    ("K=6;Ks=4;groups=[3-4][1-2]", "T6", 2, True),
])
def test_match_theorem(text, tid, m, swap):
    got = match_theorem(Partition.parse(text))
    assert got.id == tid
    assert got.m == m
    assert got.swap is swap


def test_match_rejects_interleaved_pair():
    with pytest.raises(UnsupportedShapeError) as exc:
        match_theorem(Partition.parse("K=4;Ks=4;groups=[1,3][2,4]"))
    assert exc.value.nearest


def test_match_rejects_three_groups_with_merge_hint():
    with pytest.raises(UnsupportedShapeError) as exc:
        match_theorem(Partition.parse("K=10;Ks=8;groups=[1-3][4-6][7-8]"))
    assert "K=10;Ks=8;groups=[1-3][4-8]" in exc.value.nearest


@st.composite
def partitions(draw):
    Ks = draw(st.integers(1, 8))
    K = draw(st.integers(Ks, 10))
    labels = draw(st.lists(st.integers(0, 3), min_size=Ks, max_size=Ks))
    groups = {}
    for rank, lab in enumerate(labels, start=1):
        groups.setdefault(lab, []).append(rank)
    return Partition(K, Ks, tuple(tuple(g) for g in groups.values()))


@given(partitions())
def test_round_trip_property(p):
    assert Partition.parse(p.format()) == p


@given(partitions())
def test_theorem_partition_inverts_match(p):
    # Every accepted partition is the one that its match's selectors name,
    # with the groups in the evaluator's order when the match swaps them.
    try:
        got = match_theorem(p)
    except UnsupportedShapeError:
        return
    back = theorem_partition(got.id[:2], got.K, got.Ks, got.m)
    assert back.groups == (p.groups[::-1] if got.swap else p.groups)
    assert (back.K, back.Ks) == (p.K, p.Ks)


@pytest.mark.parametrize("sel,text", [
    (("T1", 4), "K=4;Ks=4;groups=[1-4]"),
    (("T2", 5, None, 3), "K=5;Ks=5;groups=[3][1-2,4-5]"),
    (("T3", 5, 5, 2), "K=5;Ks=5;groups=[1-2][3-5]"),
    (("T4", 6, 4), "K=6;Ks=4;groups=[1-4]"),
    (("t5", 6, 4, 1), "K=6;Ks=4;groups=[1][2-4]"),
    (("T6", 6, 4, 3), "K=6;Ks=4;groups=[1-3][4]"),
])
def test_theorem_partition_shapes(sel, text):
    assert theorem_partition(*sel).format() == text


@pytest.mark.parametrize("sel,flag", [
    (("T7", 4), "theorem"),
    (("T2", None, None, 1), "--K"),
    (("T5", 5, None, 1), "--Ks"),
    (("T2", 5, 3, 2), "--Ks"),
    (("T1", 4, None, 2), "--m"),
    (("T4", 5, 3, 1), "--m"),
    (("T3", 4), "--m"),
    (("T3", 4, 4, 4), "--m"),
    (("T5", 5, 4, 0), "--m"),
    (("T2", 1, 1, 1), "--m"),
])
def test_theorem_partition_rejects(sel, flag):
    with pytest.raises(DomainError, match=flag):
        theorem_partition(*sel)
