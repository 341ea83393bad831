"""Cross-validation report plumbing (schema, filters, rendering)."""

import json

import numpy as np
import pytest

from ordstat import verify
from ordstat.errors import DomainError


@pytest.fixture(scope="module")
def kernel_report():
    return verify.run_suites(seed=7, quick=True, suites=["kernels"])


def test_report_schema(kernel_report):
    rep = kernel_report
    assert rep["schema"] == 1
    assert rep["seed"] == 7
    assert rep["profile"] == "quick"
    assert rep["passed"] + rep["failed"] == \
        sum(len(s["checks"]) for s in rep["suites"].values())
    assert rep["all_pass"] is (rep["failed"] == 0)
    for suite in rep["suites"].values():
        for c in suite["checks"]:
            assert set(c) == {"name", "observed", "bound", "op", "pass"}
            assert c["op"] in ("<=", ">=")


def test_normalization_and_mc_suites_pass():
    rep = verify.run_suites(seed=42, quick=True,
                            suites=["normalization", "mc"])
    failed = [c["name"] for s in rep["suites"].values()
              for c in s["checks"] if not c["pass"]]
    assert failed == []
    assert rep["passed"] == 22


def test_suite_names_cover_report():
    assert set(verify.SUITE_NAMES) == {
        "kernels", "identities", "reorder", "normalization", "cross_path",
        "mc"}


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        verify.run_suites(seed=1, quick=True, suites=["bogus"])


def test_depth_filter_restricts_identity_checks():
    rep = verify.run_suites(seed=3, quick=True, suites=["identities"],
                            depth=2)
    names = [c["name"] for c in rep["suites"]["identities"]["checks"]]
    assert names and all("depth2" in n for n in names)


def test_depth_out_of_range():
    with pytest.raises(DomainError):
        verify.run_suites(seed=3, quick=True, suites=["identities"], depth=9)


def test_render_report_lines(kernel_report):
    text = verify.render_report(kernel_report)
    lines = text.strip().splitlines()
    assert all(ln.startswith(("PASS", "FAIL")) for ln in lines[:-1])
    assert lines[-1].startswith("summary:")
    assert "3 passed, 0 failed" in lines[-1]


def test_report_json_round_trip(kernel_report):
    blob = verify.report_json(kernel_report)
    assert json.loads(blob) == kernel_report
    # Serialization is stable: same report, same bytes.
    assert verify.report_json(json.loads(blob)) == blob


def test_same_seed_same_report():
    a = verify.run_suites(seed=11, quick=True, suites=["kernels"])
    b = verify.run_suites(seed=11, quick=True, suites=["kernels"])
    assert verify.report_json(a) == verify.report_json(b)
    c = verify.run_suites(seed=12, quick=True, suites=["kernels"])
    assert verify.report_json(a) != verify.report_json(c)


def test_numeric_failure_is_reported_not_raised(monkeypatch):
    # A package-reported numerical failure becomes a FAIL entry with the
    # sentinel observed value instead of aborting the run.
    from ordstat import generic_joint
    from ordstat.errors import ConvergenceError

    def boom(*a, **kw):
        raise ConvergenceError("injected")

    monkeypatch.setattr(generic_joint, "t2_jpdf", boom)
    rep = verify.run_suites(seed=5, quick=True, suites=["cross_path"])
    assert rep["all_pass"] is False
    by_name = {c["name"]: c for c in rep["suites"]["cross_path"]["checks"]}
    assert not by_name["cross_path/T2"]["pass"]
    assert by_name["cross_path/T2"]["observed"] == verify._FAILED_EVAL
    assert by_name["cross_path/T1"]["pass"]
    assert "FAIL" in verify.render_report(rep)


def test_reduced_densities_are_never_called_per_node(monkeypatch):
    # The normalization and mc suites hand their nodes and bin centres to
    # the reduced densities (T3, T5, T6) as arrays: one ``values`` call per
    # block of nodes, never one single-point call per node.
    from ordstat import exact_exp
    calls = {"point": 0, "values": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (exact_exp.HeadTailAllK, exact_exp.BestKsOneVsRest,
                exact_exp.BestKsHeadTail):
        monkeypatch.setattr(cls, "__call__", counted("point", cls.__call__))
        monkeypatch.setattr(cls, "values", counted("values", cls.values))
    rep = verify.run_suites(seed=42, quick=True,
                            suites=["normalization", "mc"])
    assert rep["all_pass"]
    assert calls["point"] == 0
    assert calls["values"] > 0


def test_full_profile_normalization_passes():
    # Four shifts of the lattice rule, 2^17 points per density.
    rep = verify.run_suites(seed=42, quick=False, suites=["normalization"])
    assert rep["profile"] == "full"
    failed = [c["name"] for c in rep["suites"]["normalization"]["checks"]
              if not c["pass"]]
    assert failed == []


def test_lattice_rule_masses_at_quick_size():
    # Scrambled Sobol's worst |mass - 1| over seeds 1-20 was 2e-4; the
    # single-shift lattice rule stays within it on every chain.
    for seed in range(1, 9):
        rep = verify.run_suites(seed=seed, quick=True,
                                suites=["normalization"])
        qmc = [c["observed"] for c in rep["suites"]["normalization"]["checks"]
               if c["name"].startswith("normalization/qmc_")]
        assert len(qmc) == 4
        assert max(qmc) <= 2e-4, (seed, qmc)


def test_lattice_rule_needs_a_whole_lattice():
    with pytest.raises(DomainError):
        verify.qmc_normalization(None, ((0, "exp", None),), 14, 1)


def test_cdf_interp_matches_erlang_cdf():
    from ordstat import exact_exp
    cdf = verify._cdf_interp(exact_exp.pdf_sum_all(4, 1.0), 60.0)
    xs = np.linspace(0.0, 60.0, 3001)
    want = np.array([exact_exp._erlang_cdf(4, x) if x > 0 else 0.0
                     for x in xs])
    assert np.max(np.abs(cdf(xs) - want)) <= 1e-6
    assert cdf(np.array([-1.0, 80.0])).tolist() == [0.0, float(cdf(60.0))]
