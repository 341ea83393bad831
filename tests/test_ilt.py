"""Numeric inverse Laplace transforms against known pairs."""

import math

import numpy as np
import pytest

from ordstat import ilt
from ordstat.errors import DomainError
from ordstat.ilt import IltResult, TransformFn, invert_numeric, invert_rows

A = 0.8


def exp_pair():
    return (TransformFn(lambda s: 1.0 / (s + A), abscissa=-A, scale_hint=1 / A),
            lambda t: math.exp(-A * t))


def ramp_pair():
    return (TransformFn(lambda s: 1.0 / (s + A) ** 2, abscissa=-A,
                        scale_hint=1 / A),
            lambda t: t * math.exp(-A * t))


def erlang_pair(k=5):
    return (TransformFn(lambda s: (A / (s + A)) ** k, abscissa=-A,
                        scale_hint=k / A),
            lambda t: A ** k * t ** (k - 1) * math.exp(-A * t)
            / math.factorial(k - 1))


def gaussianish_pair():
    # Transform of exp(-t)*sin(t), poles at -1 +- i.
    return (TransformFn(lambda s: 1.0 / ((s + 1) ** 2 + 1.0), abscissa=-1.0,
                        scale_hint=1.0),
            lambda t: math.exp(-t) * math.sin(t))


PAIRS = [exp_pair, ramp_pair, erlang_pair, gaussianish_pair]


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("t", [0.3, 1.0, 2.7, 6.0])
def test_known_pairs_invert(pair, t):
    tf, truth = pair()
    res = invert_numeric(tf, t, target_digits=8)
    want = truth(t)
    assert res.value == pytest.approx(want, rel=1e-7, abs=1e-8)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("t", [0.5, 1.5, 4.0])
def test_error_estimates_are_honest(pair, t):
    tf, truth = pair()
    res = invert_numeric(tf, t, target_digits=8)
    actual = abs(res.value - truth(t))
    # The estimate may be conservative, never optimistic beyond 10x.
    assert actual <= 10.0 * max(res.error_estimate, 1e-12)


def shifted_pole_pair(b=1.8):
    # exp(-b(s+1))/(s+1)^3: a triple pole behind a delay b.
    return (TransformFn(lambda s: np.exp(-b * (s + 1)) / (s + 1) ** 3,
                        abscissa=-1.0, scale_hint=3.0),
            lambda t: 0.5 * (t - b) ** 2 * math.exp(-t) if t > b else 0.0)


def _assert_honest(res, want):
    # At target_digits=8: never optimistic beyond 10x, and a converged
    # value meets its target.
    actual = abs(res.value - want)
    assert actual <= 10.0 * max(res.error_estimate, 1e-12)
    if res.converged:
        assert actual <= 1e-8 * max(1.0, abs(res.value))


# In both pairs below exp(-abscissa*t) f(t) grows between t and 3t, where
# the trapezoid's leading aliasing term samples it: by ((3t-b)/(t-b))^2
# just past the delay, and by 3^(k-1) for an Erlang-k pole.
@pytest.mark.parametrize("t", [2.1, 3.0, 4.4])
def test_error_estimates_are_honest_past_a_delay(t):
    tf, truth = shifted_pole_pair()
    res = invert_numeric(tf, t, target_digits=8)
    assert res.value == pytest.approx(truth(t), rel=2e-6, abs=1e-9)
    _assert_honest(res, truth(t))


@pytest.mark.parametrize("k", [10, 20])
@pytest.mark.parametrize("x", [0.8, 1.0, 1.25])
def test_high_order_erlang_inverts_near_mean(k, x):
    tf, truth = erlang_pair(k)
    t = x * k / A
    res = invert_numeric(tf, t, target_digits=8)
    assert res.value == pytest.approx(truth(t), rel=1e-7, abs=1e-8)
    _assert_honest(res, truth(t))


def test_converged_flag_tracks_target():
    tf, truth = exp_pair()
    res = invert_numeric(tf, 1.0, target_digits=8)
    assert res.converged
    assert abs(res.value - truth(1.0)) < 1e-8


def test_below_resolution_times_report_zero():
    tf, _ = exp_pair()
    res = invert_numeric(tf, 1e-9, target_digits=8)
    assert res.value == 0.0
    assert res.converged


def test_result_float_coercion():
    tf, _ = exp_pair()
    res = invert_numeric(tf, 1.0)
    assert float(res) == res.value
    assert isinstance(res, IltResult)


def test_result_fields_are_python_scalars():
    tf, _ = exp_pair()
    res = invert_numeric(tf, 1.0)
    assert type(float(res)) is float
    assert type(res.value) is float
    assert type(res.error_estimate) is float
    assert type(res.converged) is bool


def delay_transform(b=1.2):
    # exp(-b*s)/(s+a) inverts to a delayed decay, zero before b.
    return TransformFn(lambda s: np.exp(-b * s) / (s + A), abscissa=-A,
                       scale_hint=2.0)


def test_shifted_transform_inverts_with_support_gap():
    b = 1.2
    tf = delay_transform(b)
    res = invert_numeric(tf, 2.0, target_digits=7)
    assert res.value == pytest.approx(math.exp(-A * (2.0 - b)), rel=1e-5)
    early = invert_numeric(tf, 0.5, target_digits=7)
    assert abs(early.value) < 1e-5


# Node counts of every transform above at the times its tests invert,
# pinned from the inverter that evaluated one node per call: evaluating
# the nodes a line lacks as one array leaves them unchanged.
_T7 = (0.3, 0.5, 1.0, 1.5, 2.7, 4.0, 6.0)
NEVAL = [
    (exp_pair, 8, _T7, [90] * 7),
    (ramp_pair, 8, _T7, [90, 135, 135, 135, 90, 90, 90]),
    (erlang_pair, 8, _T7, [58, 58, 90, 135, 135, 180, 180]),
    (gaussianish_pair, 8, _T7, [90] * 7),
    (lambda: erlang_pair(10), 8, [x * 10 / A for x in (0.8, 1.0, 1.25)],
     [119] * 3),
    (lambda: erlang_pair(20), 8, [x * 20 / A for x in (0.8, 1.0, 1.25)],
     [119, 119, 103]),
    (shifted_pole_pair, 8, (2.1, 3.0, 4.4), [3111, 1575, 1063]),
    (lambda: (delay_transform(), None), 7, (0.5, 2.0), [87, 188]),
]


@pytest.mark.parametrize("pair, digits, ts, neval", NEVAL)
def test_node_counts_unchanged(pair, digits, ts, neval):
    tf, _ = pair()
    assert [invert_numeric(tf, t, target_digits=digits).neval
            for t in ts] == neval


# Times at 0 and below resolution, and times the Euler stage closes at
# different truncations and lines.
TIMES = [0.0, 1e-9, 0.3, 0.5, 1.0, 2.7, 6.0]


def _fields(res):
    return (res.value, res.error_estimate, res.converged, res.method,
            res.neval, res.t)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("digits", [8, 12])
def test_rows_are_their_times_inverted_alone(pair, digits):
    # At 12 digits most rows fall through to de Hoog.
    tf, _ = pair()
    rows = invert_rows(tf, np.array(TIMES), target_digits=digits)
    assert len(rows) == len(TIMES)
    for i, t in enumerate(TIMES):
        assert _fields(rows[i]) == _fields(
            invert_numeric(tf, t, target_digits=digits))
    assert list(rows.method[:2]) == ["below-resolution"] * 2


def test_rows_reach_every_stage():
    methods = {m for pair in PAIRS
               for digits in (8, 12)
               for m in invert_rows(pair()[0], TIMES, digits).method}
    assert methods == {"below-resolution", "euler", "dehoog",
                       "dehoog-unconverged"}


def test_rows_take_as_many_calls_as_the_costliest_row():
    # The Euler stage evaluates the nodes every open row lacks in one call.
    tf0, _ = erlang_pair()
    calls = []

    def counted(s):
        calls.append(s.size)
        return tf0.f(s)

    tf = TransformFn(counted, tf0.abscissa, tf0.scale_hint)
    alone = []
    for t in TIMES:
        del calls[:]
        res = invert_numeric(tf, t)
        assert sum(calls) == res.neval
        alone.append(len(calls))
    del calls[:]
    rows = invert_rows(tf, TIMES)
    assert sum(calls) == rows.neval.sum()
    assert len(set(alone)) > 2 and len(calls) == max(alone)


def test_blocks_of_rows_change_no_bits(monkeypatch):
    tf, _ = shifted_pole_pair()
    ts = np.linspace(0.0, 6.0, 11)
    whole = invert_rows(tf, ts)
    monkeypatch.setattr(ilt, "_ROWS", 3)
    blocked = invert_rows(tf, ts)
    assert ([_fields(whole[i]) for i in range(11)]
            == [_fields(blocked[i]) for i in range(11)])


def test_rows_of_no_times_and_negative_times():
    tf, _ = exp_pair()
    rows = invert_rows(tf, np.array([]))
    assert len(rows) == 0 and rows.value.shape == (0,)
    with pytest.raises(DomainError):
        invert_rows(tf, [1.0, -1.0])


def test_validate_accepts_analytic_rejects_nonanalytic():
    good = TransformFn(lambda s: 1.0 / (s + 1.0), abscissa=-1.0)
    assert good.validate()
    bad = TransformFn(lambda s: complex(s).real + 1.0, abscissa=0.0)
    with pytest.raises(DomainError):
        bad.validate()


def test_negative_time_rejected():
    tf, _ = exp_pair()
    with pytest.raises(DomainError):
        invert_numeric(tf, -1.0)
