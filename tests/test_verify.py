"""Cross-validation report plumbing (schema, filters, rendering)."""

import json
import math

import numpy as np
import pytest

from ordstat import reductions, verify
from ordstat.errors import DomainError
from ordstat.partition import t5_case


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


def test_depth_needs_the_identities_suite():
    with pytest.raises(DomainError, match="identities"):
        verify.run_suites(seed=3, quick=True, suites=["kernels", "mc"],
                          depth=2)


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


def test_cross_path_report_is_fixed_by_its_seed():
    def blob(seed):
        return verify.report_json(verify.run_suites(
            seed=seed, quick=True, suites=["cross_path"]))

    assert blob(4) == blob(4)
    assert blob(4) != blob(5)


def _in_support(shape, *pt):
    fam, K, Ks, m = shape.id[:2], shape.K, shape.Ks, shape.m
    if fam in ("T1", "T4"):
        return pt[0] >= 0
    size = K if fam in ("T2", "T3") else Ks
    return bool(getattr(reductions, f"t{fam[1]}_support")(size, m, *pt))


@pytest.mark.parametrize("seed, quick", [(1, True), (2, True), (3, False)])
def test_cross_path_points_lie_in_their_supports(monkeypatch, seed, quick):
    # Every point is one draw of its shape's partial sums, so it is finite
    # and inside the support of the pair it checks.
    seen = []

    def record(shape, gb, *pt):
        seen.append((shape, gb, pt))
        return cross(shape, gb, *pt)

    cross = verify._cross
    monkeypatch.setattr(verify, "_cross", record)
    rep = verify.run_suites(seed=seed, quick=quick, suites=["cross_path"])
    assert rep["all_pass"]
    sizes = verify._sizes(quick)
    assert len(seen) == 6 * sizes["cross_points"]
    for shape, gb, pt in seen:
        assert 0.6 <= gb <= 1.7
        assert len(pt) == (1 if shape.id[:2] in ("T1", "T4") else 2)
        assert all(math.isfinite(v) for v in pt), (shape, pt)
        assert _in_support(shape, *pt), (shape, pt)
        assert shape.K <= sizes["cross_kmax"]
        if shape.id[:2] == "T5":
            assert shape.id == "T5" + t5_case(shape.Ks, shape.m)
    if quick:
        # Four points a family: T5 takes each of its cases once.
        assert sorted(s.id for s, _, _ in seen if s.id[:2] == "T5") == [
            "T5a", "T5b", "T5c", "T5d"]


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


def _whole_lattice_mass(density, chain, m_log2, seed):
    # The reference of the blocked rule: every point of every shift
    # mapped and evaluated in one pass.
    n, d = 2 ** verify._LATTICE_LOG2, len(chain)
    shifts = verify._rng(seed, "normalization").random(
        (2 ** (m_log2 - verify._LATTICE_LOG2), 1, d))
    base = np.multiply.outer(np.arange(n), verify._LATTICE_Z[:d]) % n / n
    u = (base + shifts).reshape(-1, d)
    u[u >= 1.0] -= 1.0
    u = np.minimum(1.0 - np.abs(2.0 * u - 1.0), verify._BELOW_ONE)
    z = np.zeros_like(u)
    jac = np.ones(u.shape[0])
    for col, (idx, kind, fn) in enumerate(chain):
        ui = u[:, col]
        if kind == "exp":
            lo, scale = fn(z)
            z[:, idx] = lo - scale * np.log1p(-ui)
            jac *= scale / (1.0 - ui)
        else:
            lo, hi = fn(z)
            z[:, idx] = lo + (hi - lo) * ui
            jac *= hi - lo
    return float(np.mean(density.values(*z.T) * jac))


@pytest.mark.parametrize("m_log2", [15, 16])
def test_blocked_lattice_rule_has_the_bits_of_one_pass(m_log2):
    from ordstat import exact_exp
    density = exact_exp.FineOneMidLast(5, 4, 1.0)
    chain = ((2, "exp", lambda z: (0.0, 1.0)),
             (0, "exp", lambda z: (z[:, 2], 1.5)),
             (1, "lin", lambda z: (2.0 * z[:, 2], 2.0 * z[:, 0])))
    got = verify.qmc_normalization(density, chain, m_log2, 3)
    assert got == _whole_lattice_mass(density, chain, m_log2, 3)


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
