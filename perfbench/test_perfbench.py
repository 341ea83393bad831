"""Tests of the benchmark itself.  Run from the checkout root with::

    python3 -m pytest -q perfbench

They take about a minute, most of it in two quick-profile verify runs.
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from ordstat import cli, exact_exp, generic_joint  # noqa: E402
from ordstat.errors import ConvergenceError  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return {"rc": rc, "text": buf.getvalue(), "error": None}


def _op(workload, cell, seed=1):
    """The first operation of ``cell`` (an id without its ``/m`` part)."""
    return next(op for op in workloads.build(workload, seed)
                if op.id == cell or op.id.startswith(cell + "/m"))


def test_metric_names_and_units():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert m["unit"]
    assert set(Tracer().layer_metrics()) <= set(run.metric_units()[1])


def test_inputs_depend_only_on_seed():
    for w in workloads.WORKLOADS:
        assert workloads.build(w, 3) == workloads.build(w, 3)
        assert len({tuple(workloads.build(w, s)) for s in range(8)}) > 1, w


# One cheap operation per layer the tabulating workloads reach.
_TRACED_OPS = [("exact_tab", "exact/exp/T3/K5"),
               ("exact_tab", "exact/exp/T5b/K5"),
               ("exact_tab", "msgsc/L4"),
               ("generic_tab", "generic/halfnormal/T2/K4"),
               ("generic_tab", "generic/exp/T6/K4"),
               ("generic_tab", "generic/exp/T1/K10")]


def _traced_counts():
    tracer = Tracer()
    tracer.install()
    try:
        for workload, cell in _TRACED_OPS:
            tracer.tag = cell
            _call(_op(workload, cell).argv)
    finally:
        tracer.uninstall()
    units = run.metric_units()[1]
    return {k: v for k, v in tracer.layer_metrics().items()
            if units[k] == "count"}


def test_traced_counts_repeat_exactly():
    first = _traced_counts()
    assert first == _traced_counts()
    for key in ("cli.calls", "exact_exp.calls", "stepsum.calls",
                "quad.calls", "quad.integrand_evals", "ilt.calls",
                "generic_joint.calls", "distributions.pdf1_calls",
                "apps.calls"):
        assert first[key] > 0, key


def test_tracer_restores_the_package():
    def state():
        return (cli.main, generic_joint.invert_numeric,
                generic_joint.integrate, exact_exp.FineLastHead.__call__,
                exact_exp.BestKsOneVsRest.__call__)

    before = state()
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert state() == before


def test_tracer_sees_every_route_to_a_density():
    tracer = Tracer()
    tracer.install()
    try:
        exact_exp.FineLastHead(5, 4, 1.0)(0.5, 2.5)      # built directly
        exact_exp.pdf_sum_all(4, 1.0).evaluate([1.0])    # vector adapter
        exact_exp.jpdf_headsum_vs_tailsum_bestKs(6, 5, 2, 1.0)(2.0, 1.0)
    finally:
        tracer.uninstall()
    # The T6 density's own calls of its fine density are not counted.
    assert tracer.calls["exact_exp"] == 3
    assert len(tracer.points["exact_exp.T1"]) == 1
    assert len(tracer.points["exact_exp.T6"]) == 1


def test_checker_passes_a_correct_grid():
    op = _op("exact_tab", "exact/exp/T1/K5")
    checker = oracle.Checker()
    checker.check(op, _call(op.argv))
    assert checker.attempted == op.n_points
    assert checker.failed == 0


def _planted(result, factor, count=1):
    """``result`` with the first ``count`` values above 1e-3 scaled."""
    lines = result["text"].splitlines()
    for i, ln in enumerate(lines):
        *point, v = ln.split(",")
        if count and ln[0].isdigit() and float(v) > 1e-3:
            lines[i] = ",".join([*point, repr(float(v) * factor)])
            count -= 1
    return dict(result, text="\n".join(lines) + "\n")


def _checked(op, result):
    checker = oracle.Checker()
    checker.check(op, result)
    return checker


def test_checker_fails_a_planted_wrong_value():
    op = _op("exact_tab", "exact/exp/T4/K5")
    checker = _checked(op, _planted(_call(op.argv), 1 + 1e-6))
    assert checker.failed == 1
    assert checker.unexpected == 1


def test_known_defects_are_capped():
    # Exact T2 at K=10 is a known defect, within its caps as computed...
    op = _op("exact_tab", "exact/exp/T2/K10")
    result = _call(op.argv)
    assert _checked(op, result).unexpected == 0
    # ...but one grossly wrong value there still makes the run incorrect,
    checker = _checked(op, _planted(result, 1.01))
    assert checker.unexpected == checker.failed > 0
    # and so do more failing points than the grid's cap allows, each of
    # them only slightly off.
    op = _op("exact_tab", "exact/exp/T2/K5")
    checker = _checked(op, _planted(_call(op.argv), 1 + 5e-8, count=12))
    assert checker.unexpected == checker.failed >= 12


def test_checker_fails_every_point_of_a_raising_grid(monkeypatch):
    def diverge(*args, **kwargs):
        raise ConvergenceError("planted")

    monkeypatch.setattr(generic_joint, "_ilt", diverge)
    op = _op("generic_tab", "generic/halfnormal/T1/K4")
    result = _call(op.argv)
    assert result["rc"] == cli.EXIT_NUMERIC
    checker = oracle.Checker()
    checker.check(op, result)
    assert checker.attempted == checker.failed == op.n_points


def test_checker_fails_a_failed_verify_check():
    op = _op("verify_quick", "verify/quick")
    report = {"all_pass": False, "suites": {"mc": {"checks": [
        {"name": "mc/x", "pass": True, "observed": 0.0, "bound": 1.0},
        {"name": "mc/y", "pass": False, "observed": 2.0, "bound": 1.0}]}}}
    checker = oracle.Checker()
    checker.check(op, {"rc": 1, "error": None,
                       "text": "FAIL mc/y\n" + json.dumps(report)})
    assert (checker.attempted, checker.failed) == (2, 1)


def test_verify_report_is_byte_identical():
    op = _op("verify_quick", "verify/quick")
    first, second = _call(op.argv), _call(op.argv)
    assert first["rc"] == 0
    assert first["text"] == second["text"]
    checker = oracle.Checker()
    checker.check(op, first)
    assert checker.attempted > 30 and checker.failed == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = _bench()["command"] + ["--workload", "exact_tab", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("text,rows", [
    ("# c\nx,pdf\n1,2\n3,4\n", [(1.0, 2.0), (3.0, 4.0)]),
    ("# c\nx,y,pdf\n1,2,0.5\n", [(1.0, 2.0, 0.5)]),
])
def test_parse_csv(text, rows):
    assert oracle.parse_csv(text) == rows
