"""Command-line surface: exit codes, output formats, determinism."""

import ast
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import ordstat
from ordstat import cli
from ordstat.mc_oracle import sample_sorted
from ordstat.partition import Partition, t5_case


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_total_sum(capsys):
    code, out, _ = run(capsys, "eval", "--theorem", "T1", "--dist", "exp:1",
                       "--K", "3", "--at", "2.0")
    assert code == 0
    want = 2.0 ** 2 * math.exp(-2.0) / 2.0
    assert float(out) == want
    assert out.strip() == format(want, ".17g")


def test_eval_pair_case(capsys):
    # (1.0, 0.5) violates the rest-sum bound for m = Ks, so the density is
    # exactly zero there; in-support evaluation is checked next to it.
    code, out, _ = run(capsys, "eval", "--theorem", "T5", "--case", "d",
                       "--dist", "exp:1", "--K", "4", "--Ks", "2",
                       "--at", "1.0,0.5")
    assert code == 0
    assert float(out) == 0.0
    code, out, _ = run(capsys, "eval", "--theorem", "T5", "--case", "d",
                       "--dist", "exp:1", "--K", "4", "--Ks", "2",
                       "--at", "0.5,1.0")
    assert code == 0
    assert float(out) > 0.0


def test_eval_partition_swap_matches_direct(capsys):
    _, direct, _ = run(capsys, "eval", "--theorem", "T2", "--K", "4",
                       "--m", "1", "--at", "1.0,1.5")
    code, swapped, _ = run(capsys, "eval", "--partition",
                           "K=4;Ks=4;groups=[2-4][1]", "--at", "1.5,1.0")
    assert code == 0
    assert swapped == direct


def test_eval_case_m_conflict(capsys):
    code, _, err = run(capsys, "eval", "--theorem", "T5", "--case", "a",
                       "--K", "5", "--Ks", "4", "--m", "3",
                       "--at", "1.0,2.0")
    assert code == 2
    assert "case" in err


def test_eval_missing_at(capsys):
    code, _, err = run(capsys, "eval", "--theorem", "T1", "--K", "3")
    assert code == 2
    assert "--at" in err


def test_unsupported_partition_exit_and_hint(capsys):
    code, _, err = run(capsys, "eval", "--partition",
                       "K=10;Ks=8;groups=[1-3][4-6][7-8]", "--at", "1,1,1")
    assert code == 3
    assert "nearest supported" in err
    assert "K=10;Ks=8;groups=[1-3][4-8]" in err


# Every family on exp:1 at K=5, Ks=4, near the means of its coordinates.
FAMILY_POINTS = {
    "T1": (["--theorem", "T1"], "5.0"),
    "T2": (["--theorem", "T2", "--m", "2"], "1.3,3.7"),
    "T3": (["--theorem", "T3", "--m", "2"], "3.5,1.4"),
    "T4": (["--theorem", "T4", "--Ks", "4"], "4.8"),
    "T5a": (["--theorem", "T5", "--Ks", "4", "--case", "a"], "2.3,2.5"),
    "T5b": (["--theorem", "T5", "--Ks", "4", "--m", "2"], "1.3,3.5"),
    "T5c": (["--theorem", "T5", "--Ks", "4", "--case", "c"], "0.8,4.0"),
    "T5d": (["--theorem", "T5", "--Ks", "4", "--case", "d"], "0.45,3.85"),
    "T6": (["--theorem", "T6", "--Ks", "4", "--m", "2"], "3.5,1.2"),
}


@pytest.mark.parametrize("gb", [1e-12, 1e-5, 1e5, 1e10])
def test_eval_at_extreme_means(capsys, gb):
    # The exact path runs in units of the mean, so a mean of 1e-12 (a
    # branch power in watts) neither overflows nor gives nan at K = 30.
    for family, (shape, at) in FAMILY_POINTS.items():
        z = ",".join(repr(float(c) * gb) for c in at.split(","))
        code, out, err = run(capsys, "eval", *shape, "--K", "30", "--dist",
                             f"exp:{gb!r}", "--at", z)
        assert code == 0, (family, err)
        assert math.isfinite(float(out)) and float(out) >= 0.0, family


@pytest.mark.parametrize("family", sorted(FAMILY_POINTS))
def test_generic_method_matches_exact(capsys, family):
    shape, at = FAMILY_POINTS[family]
    vals = []
    for method in ("exact", "generic"):
        code, out, _ = run(capsys, "eval", *shape, "--K", "5", "--dist",
                           "exp:1", "--at", at, "--method", method)
        assert code == 0
        vals.append(float(out))
    assert vals[0] > 1e-3
    assert vals[1] == pytest.approx(vals[0], rel=1e-6)


def test_exact_method_rejects_non_exponential(capsys):
    code, _, err = run(capsys, "eval", "--theorem", "T1", "--K", "2",
                       "--dist", "halfnormal:1", "--method", "exact",
                       "--at", "1.0")
    assert code == 2
    assert "exponential" in err


def test_tabulate_csv_round_trip(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "tabulate", "--theorem", "T1", "--K", "2",
                     "--grid", "0:4:5", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert any(ln.startswith("# command: ordstat tabulate") for ln in meta)
    assert any("# shape: T1" in ln for ln in meta)
    assert body[0] == "x,pdf"
    rows = [ln.split(",") for ln in body[1:]]
    assert len(rows) == 5
    assert [float(r[0]) for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    # 17 significant digits: parsing back reproduces the double exactly.
    x, v = map(float, rows[2])
    assert v == x * math.exp(-x)


def test_csv_rows_format_as_fmt():
    # A row template prints each value as ``_fmt`` does, special values and
    # random bit patterns included, and as a Python or a numpy float.
    bits = np.random.default_rng(7).integers(0, 2 ** 64, 20000,
                                             dtype=np.uint64)
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
              1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1e16]
    values += bits.view(np.float64).tolist()
    rows = [values[i:i + 3] for i in range(0, len(values) - 2, 3)]
    want = "\n".join(",".join(cli._fmt(v) for v in row) for row in rows)
    text = cli._csv([], ("a", "b", "c"), rows)
    assert text == "a,b,c\n" + want + "\n"
    assert cli._csv([], ("a", "b", "c"), np.array(rows)) == text


def test_tabulate_grid_dimension_mismatch(capsys):
    code, _, err = run(capsys, "tabulate", "--theorem", "T2", "--K", "3",
                       "--m", "1", "--grid", "0:1:3")
    assert code == 2
    assert "--grid" in err or "axis" in err


@pytest.mark.parametrize("argv", [
    ("tabulate", "--theorem", "T1", "--K", "3", "--grid", "0:1:1"),
    ("tabulate", "--theorem", "T1", "--K", "3", "--grid", "1:0:5"),
    ("msgsc", "--L", "4", "--gamma-t", "1", "--grid", "1:0:5"),
    ("tabulate", "--theorem", "T1", "--K", "3", "--grid", "0:inf:5"),
    ("tabulate", "--theorem", "T1", "--K", "3", "--grid", "0:1:3",
     "--digits", "0"),
    ("eval", "--theorem", "T1", "--K", "3", "--at", "1", "--digits", "0"),
    ("eval", "--theorem", "T2", "--K", "3", "--m", "2", "--at", "0.5,1",
     "--digits", "20"),
    ("eval", "--theorem", "T1", "--K", "3", "--at", "1", "--digits", "3"),
], ids=["count1", "reversed", "msgsc-reversed", "infinite",
        "tabulate-digits0", "eval-digits0", "eval-digits20", "eval-digits3"])
def test_bad_grid_or_digits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "grid" in err or "digits" in err


@pytest.mark.parametrize("at", ["1,inf", "nan,1", "-inf,1"])
@pytest.mark.parametrize("method", ["exact", "generic"])
def test_non_finite_at_exits_2(capsys, at, method):
    code, out, err = run(capsys, "eval", "--theorem", "T2", "--K", "3",
                         "--m", "2", "--method", method, f"--at={at}")
    assert code == 2
    assert out == ""
    assert "--at" in err


@pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("stage", [None, "3"])
def test_non_finite_msgsc_at_exits_2(capsys, at, stage):
    argv = ["msgsc", "--L", "4", "--gamma-t", "1", f"--at={at}"]
    code, out, err = run(capsys, *argv, *(["--stage", stage] if stage else []))
    assert code == 2
    assert out == ""
    assert "--at" in err


@pytest.mark.parametrize("flag", ["--gamma-t", "--gamma-bar"])
@pytest.mark.parametrize("convention", ["sum", "outage"])
def test_infinite_msgsc_parameter_exits_2(capsys, flag, convention):
    argv = ["msgsc", "--L", "4", "--gamma-t", "1", "--at", "2",
            "--convention", convention, flag, "inf"]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("dist", ["halfnormal:inf", "exp:nan", "exp:-inf"])
def test_non_finite_distribution_parameter_exits_2(capsys, dist):
    code, out, err = run(capsys, "eval", "--theorem", "T2", "--K", "3",
                         "--m", "2", "--dist", dist, "--method", "generic",
                         "--at", "0.5,1.0")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--theorem", "T2", "--K", "3", "--m", "2", "--at", "1,abc"),
    ("msgsc", "--L", "4", "--gamma-t", "1", "--at", "abc"),
], ids=["eval", "msgsc"])
def test_non_number_at_names_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--at" in err and "abc" in err


def test_verify_quick_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kernels", "--seed", "7")
    assert code == 0
    assert "kernels" in out
    assert "pass" in out


def test_verify_json_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, out1, _ = run(capsys, "verify", "--suite", "kernels",
                         "--suite", "cross_path", "--seed", "42",
                         "--json", str(a))
    code2, out2, _ = run(capsys, "verify", "--suite", "kernels",
                         "--suite", "cross_path", "--seed", "42",
                         "--json", str(b))
    assert code1 == code2 == 0
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["all_pass"] is True
    assert set(rep["suites"]) == {"kernels", "cross_path"}


def test_verify_rejects_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_verify_rejects_depth_without_the_identities_suite(capsys):
    # --depth restricts the identities suite only; with other suites it
    # would be ignored, so it is refused before any suite runs.
    code, out, err = run(capsys, "verify", "--suite", "mc", "--depth", "2")
    assert code == 2
    assert out == "" and "identities" in err


def test_msgsc_point_value(capsys):
    code, out, _ = run(capsys, "msgsc", "--L", "2", "--gamma-t", "1.0",
                       "--at", "1.5")
    assert code == 0
    from ordstat.apps import MsGscConfig, msgsc_output_cdf
    want = msgsc_output_cdf(MsGscConfig(2, 1.0, 1.0), 1.5)
    assert float(out) == pytest.approx(want, rel=1e-15)


def test_msgsc_grid_csv(capsys):
    code, out, _ = run(capsys, "msgsc", "--L", "3", "--gamma-t", "0.5",
                       "--convention", "outage", "--grid", "0.1:5:5")
    assert code == 0
    lines = out.splitlines()
    assert any("# below_threshold: outage" in ln for ln in lines)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "x,cdf"
    vals = [float(ln.split(",")[1]) for ln in body[1:]]
    assert vals == sorted(vals)


def test_sample_deterministic_with_metadata(tmp_path, capsys):
    args = ("sample", "--partition", "K=3;Ks=2;groups=[1][2]",
            "--n", "50", "--seed", "9")
    # Byte identity on stdout, where argv (echoed into the metadata) is
    # the same for both runs.
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert run(capsys, *args)[1] == out1
    f1 = tmp_path / "s1.csv"
    assert run(capsys, *args, "--output", str(f1))[0] == 0
    lines = f1.read_text().splitlines()
    assert any("# partition: K=3;Ks=2;groups=[1][2]" in ln for ln in lines)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "s1,s2"
    assert len(body) == 51
    # Rank-1 value dominates rank-2 in every draw.
    for ln in body[1:]:
        a, b = map(float, ln.split(","))
        assert a >= b


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(["--version"])
    assert exc.value.code == 0


def _fresh_python(probe, *args):
    """Run ``probe`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(ordstat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _module_imports(path):
    """Every module name that the source at ``path`` imports, at any depth
    of its body (imports inside functions count), and each ``from m import
    n`` also as ``m.n``, which names a module when ``n`` is a submodule."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            out.add(node.module)
            out.update(f"{node.module}.{a.name}" for a in node.names)
    return out


def test_cli_reaches_every_module():
    # A module that no command can load is used only by tests.  Commands
    # load some modules only when they need them, so the walk follows the
    # static import graph from ``ordstat.cli``, not ``sys.modules``.
    pkg = os.path.dirname(ordstat.__file__)
    paths = {"ordstat": os.path.join(pkg, "__init__.py")}
    paths.update((f"ordstat.{m.name}", os.path.join(pkg, f"{m.name}.py"))
                 for m in pkgutil.iter_modules([pkg]))
    reached, todo = set(), ["ordstat", "ordstat.cli"]
    while todo:
        mod = todo.pop()
        if mod in reached:
            continue
        reached.add(mod)
        todo.extend(m for m in _module_imports(paths[mod]) if m in paths)
    assert sorted(set(paths) - reached) == []


def test_no_module_names_scipy():
    # Read from the source, without starting a process: no module imports
    # scipy or mpmath (the tests' references), at any depth of its body,
    # and none defines a module ``__getattr__``, which could load one on
    # first access.
    pkg = os.path.dirname(ordstat.__file__)
    for name in ["__init__"] + [m.name for m in pkgutil.iter_modules([pkg])]:
        path = os.path.join(pkg, f"{name}.py")
        roots = {mod.split(".")[0] for mod in _module_imports(path)}
        assert not roots & {"scipy", "mpmath"}, name
        with open(path) as fh:
            body = ast.parse(fh.read()).body
        defined = {node.name for node in body
                   if isinstance(node, ast.FunctionDef)}
        defined.update(t.id for node in body if isinstance(node, ast.Assign)
                       for t in node.targets if isinstance(t, ast.Name))
        assert "__getattr__" not in defined, name


# Exact tabulation of every family, an MS-GSC grid and generic points on
# exp:1: none of them needs scipy.
NUMPY_ONLY_RUNS = [
    ["tabulate", *shape, "--K", "5", "--method", "exact",
     *(["--grid", "0.5:6:3"] * at.count(",")), "--grid", "0.5:6:3"]
    for shape, at in FAMILY_POINTS.values()
] + [
    ["msgsc", "--L", "4", "--gamma-t", "1.5", "--grid", "0.5:6:4"],
    ["eval", *FAMILY_POINTS["T1"][0], "--K", "5", "--method", "generic",
     "--at", FAMILY_POINTS["T1"][1]],
    ["eval", *FAMILY_POINTS["T2"][0], "--K", "5", "--method", "generic",
     "--at", FAMILY_POINTS["T2"][1]],
]


def test_exp_commands_load_no_scipy():
    probe = f"""
import contextlib, io, sys
import ordstat
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from ordstat import cli
for argv in {NUMPY_ONLY_RUNS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(probe).splitlines() == ["[]", "[]"]


def test_rule_modules_load_no_scipy():
    probe = """
import sys
import ordstat.kernels, ordstat.rules
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(probe).splitlines() == ["[]"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc malloc tuning")
def test_main_keeps_large_temporaries_on_heap():
    # Three 1 MiB numpy temporaries alive at once, made and freed 64
    # times.  Under glibc's own thresholds the freed heap top is returned
    # to the system each time, and each round faults in its 768 pages
    # again; on a heap that keeps it, only the first round does.
    probe = """
import contextlib, io, resource
import numpy as np
from ordstat import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["eval", "--theorem", "T1", "--K", "2", "--at", "1"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(64):
    a, b, c = (np.ones(1 << 17) for _ in range(3))
    del a, b, c
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    assert int(_fresh_python(probe)) < 64 * 768 // 8


def test_cli_import_builds_no_step_sum_table():
    # The tables of ``_backend.power_difference`` and ``head_tail`` are
    # built at first use, one shape at a time; all of them for K <= 30
    # take about 0.4 and 0.2-0.3 s.
    probe = """
import ordstat.cli
from ordstat import _backend
print(_backend._piece_table.cache_info().currsize,
      _backend._tail_coeffs.cache_info().currsize,
      _backend._head_tail_table.cache_info().currsize)
"""
    assert _fresh_python(probe).splitlines() == ["0 0 0"]


def test_verify_loads_no_scipy():
    # The quick profile of all six suites, half-normals included.
    probe = """
import contextlib, io, sys
import ordstat.verify
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from ordstat import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--seed", "42", "--json", "-"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(probe).splitlines() == ["[]", "[]"]


# Generic points and grids on the half-normal: the closed kernels and
# the CDF run on ordstat's own erfcx and erf.
HALFNORMAL_RUNS = [
    [command, *FAMILY_POINTS[fam][0], "--K", "5", "--dist", "halfnormal:1",
     "--method", "generic", *args]
    for fam in ("T1", "T2", "T5b")
    for command, args in (
        ("eval", ["--at", FAMILY_POINTS[fam][1]]),
        ("tabulate", ["--grid", "0.5:4:2"] * (1 + FAMILY_POINTS[fam][1].count(","))))
]


def test_halfnormal_commands_load_no_scipy():
    probe = f"""
import contextlib, io, sys
from ordstat import cli
for argv in {HALFNORMAL_RUNS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(probe).splitlines() == ["[]"]


def test_custom_distribution_loads_no_scipy():
    # Its kernels run on ordstat's own rules, complex lam included.
    probe = """
import math, sys
import numpy as np
from ordstat import CustomDistribution, t1_pdf, t2_jpdf, t4_pdf
rate = 0.8
dist = CustomDistribution(
    pdf=lambda x: np.where(x >= 0, rate * np.exp(-rate * x), 0.0),
    cdf=lambda x: np.where(x >= 0, -np.expm1(-rate * x), 0.0),
    mean=1 / rate, abscissa=rate)
lam = np.array([-0.4, complex(0.3, 25.0)])
for v in (t1_pdf(dist, 3, 2.0), t2_jpdf(dist, 4, 2, 0.8, 2.5),
          t4_pdf(dist, 4, 2, 2.0), dist.kernel_c(1.5, lam),
          dist.kernel_e(1.5, lam), dist.kernel_mu(0.5, math.inf, lam)):
    assert np.all(np.isfinite(v))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(probe).splitlines() == ["[]"]


def test_halfnormal_generic_t1_matches_reference(capsys):
    # 40 digits, by de Hoog inversion and by direct convolution in mpmath.
    # The Bromwich inversion's own error (about 8e-12 relative) sets the
    # bound, not the last bits of its nodes.
    code, out, _ = run(capsys, "eval", "--theorem", "T1", "--K", "4",
                       "--at", "2.5", "--dist", "halfnormal:1",
                       "--method", "generic")
    assert code == 0
    assert float(out) == pytest.approx(
        0.3173933530291413733761592991548486523475, rel=1e-11)


def test_halfnormal_generic_t2_eval_unchanged(capsys):
    # The value from before scipy.special loaded lazily, and from scipy's
    # erf before ordstat's own.
    code, out, _ = run(capsys, "eval", "--theorem", "T2", "--K", "4",
                       "--m", "2", "--at", "0.7,1.6", "--dist",
                       "halfnormal:1", "--method", "generic")
    assert code == 0
    assert out.strip() == "0.72399630008264659"


def test_repeated_main_calls_match_fresh_interpreters():
    # The parser is built once per process; list-valued flags must not
    # carry over from one call to the next.
    runs = [
        ["tabulate", "--theorem", "T2", "--K", "4", "--m", "2",
         "--grid", "0.5:3:3", "--grid", "0.5:4:2"],
        ["tabulate", "--theorem", "T1", "--K", "4", "--grid", "0.5:6:4"],
        ["msgsc", "--L", "3", "--gamma-t", "1", "--grid", "0.5:4:3"],
        ["verify", "--suite", "kernels", "--suite", "reorder", "--seed", "3"],
        ["verify", "--suite", "kernels", "--seed", "3"],
    ]
    probe = """
import contextlib, io, json, sys
from ordstat import cli
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    outs.append([rc, buf.getvalue()])
print(json.dumps(outs))
"""
    together = json.loads(_fresh_python(probe, json.dumps(runs)))
    alone = [json.loads(_fresh_python(probe, json.dumps([r])))[0]
             for r in runs]
    assert together == alone
    assert all(rc == 0 for rc, _ in together)


def test_benchmark_tracer_installs():
    # The benchmark's tracer patches package names (integrators, step sums,
    # density calls); one that the package drops fails here.
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    _fresh_python(f"import sys; sys.path.insert(0, {bench!r}); "
                  "from tracer import Tracer; t = Tracer(); t.install(); "
                  "t.uninstall()")


def test_msgsc_at_with_grid_exits_2(capsys):
    code, out, err = run(capsys, "msgsc", "--L", "4", "--gamma-t", "1",
                         "--at", "2", "--grid", "0.5:3:4")
    assert code == 2
    assert out == ""
    assert "--at" in err and "--grid" in err


# -- a grid is one call; it matches per-point ``eval`` --


def _rank_groups(K, Ks):
    """(shape flags, rank groups of the coordinates) for every family at
    (K, Ks), with every T5 case and both edges of T2."""
    every = range(1, K + 1)
    best = range(1, Ks + 1)
    out = [(["--theorem", "T1"], [every]),
           (["--theorem", "T4", "--Ks", str(Ks)], [best]),
           (["--theorem", "T4", "--Ks", "1"], [[1]])]
    for m in (1, 2):
        out.append((["--theorem", "T2", "--m", str(m)],
                    [[m], [r for r in every if r != m]]))
        out.append((["--theorem", "T3", "--m", str(m)],
                    [range(1, m + 1), range(m + 1, K + 1)]))
    for m in sorted({1, 2, Ks - 1, Ks}):
        out.append((["--theorem", "T5", "--Ks", str(Ks), "--m", str(m)],
                    [[m], [r for r in best if r != m]]))
    for m in sorted({1, 2, Ks - 1}):
        out.append((["--theorem", "T6", "--Ks", str(Ks), "--m", str(m)],
                    [range(1, m + 1), range(m + 1, Ks + 1)]))
    return out


def _grid_flags(dist, K, groups, n):
    # Axes from below 0 to about twice the mean of each coordinate, so
    # that every grid crosses the support edges.
    ranks = sample_sorted(cli._parse_dist(dist), K, 2000, seed=3)
    flags = []
    for g in groups:
        mean = float(ranks[:, [r - 1 for r in g]].sum(axis=1).mean())
        flags.append(f"--grid={-0.15 * mean:.6g}:{2.2 * mean:.6g}:{n}")
    return flags


def _csv_body(text):
    rows = [ln.split(",") for ln in text.splitlines()
            if not ln.startswith("#")]
    return rows[1:]


def _check_grid_against_eval(capsys, common, grid_flags):
    code, out, _ = run(capsys, "tabulate", *common, *grid_flags)
    assert code == 0
    rows = _csv_body(out)
    vals = [float(r[-1]) for r in rows]
    assert min(vals) == 0.0 and max(vals) > 0.0
    points = [r[:-1] for r in rows]
    # x-major: the last coordinate runs fastest.
    assert points == sorted(points, key=lambda p: [float(c) for c in p])
    for row, at in zip(rows, points):
        code, point, _ = run(capsys, "eval", *common,
                             "--at=" + ",".join(at))
        assert code == 0
        # A grid point is its rule's row alone: the same digits.
        assert row[-1] == point.strip(), (common, at)


@pytest.mark.parametrize("K", [4, 5, 10, 30])
def test_exact_tabulate_matches_eval(capsys, K):
    Ks = {4: 4, 5: 4, 10: 8, 30: 27}[K]
    n = 3 if K == 30 else 4
    for flags, groups in _rank_groups(K, Ks):
        common = [*flags, "--K", str(K), "--dist", "exp:1",
                  "--method", "exact"]
        _check_grid_against_eval(capsys, common,
                                 _grid_flags("exp:1", K, groups, n))


@pytest.mark.parametrize("dist", ["exp:1", "halfnormal:1"])
def test_generic_tabulate_matches_eval(capsys, dist):
    K, Ks = 5, 4
    for flags, groups in _rank_groups(K, Ks):
        common = [*flags, "--K", str(K), "--dist", dist,
                  "--method", "generic"]
        _check_grid_against_eval(capsys, common,
                                 _grid_flags(dist, K, groups, 4))


@pytest.mark.parametrize("method", ["exact", "generic"])
@pytest.mark.parametrize("partition, groups", [
    ("K=5;Ks=5;groups=[3-5][1-2]", [range(3, 6), range(1, 3)]),
    ("K=6;Ks=4;groups=[3-4][1-2]", [range(3, 5), range(1, 3)]),
    ("K=6;Ks=4;groups=[2-4][1]", [range(2, 5), [1]]),
], ids=["T3", "T6", "T5a"])
def test_swapped_partition_tabulate_matches_eval(capsys, method, partition,
                                                 groups):
    K = int(partition[2])
    _check_grid_against_eval(
        capsys, ["--partition", partition, "--method", method],
        _grid_flags("exp:1", K, groups, 3))


# One grid of each reduced exact family (T3-T6, every T5 case) on exp:1.
REDUCED_GRIDS = [
    ["--theorem", "T3", "--K", "5", "--m", "2"],
    ["--theorem", "T4", "--K", "5", "--Ks", "4"],
    *(["--theorem", "T5", "--K", "5", "--Ks", "4", "--m", str(m)]
      for m in range(1, 5)),
    ["--theorem", "T6", "--K", "5", "--Ks", "4", "--m", "2"],
]


def test_grids_are_one_call(capsys, monkeypatch):
    # A tabulated grid is one call of the density, whose points are the
    # rows of one rule; an MS-GSC grid is one 2-d rule per stage.
    from ordstat import apps, exact_exp
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for cls in (exact_exp.HeadTailAllK, exact_exp.GscSum,
                exact_exp.BestKsOneVsRest, exact_exp.BestKsHeadTail):
        monkeypatch.setattr(cls, "__call__", counted("call", cls.__call__))
        monkeypatch.setattr(cls, "values", counted("values", cls.values))
    monkeypatch.setattr(apps, "_gauss_2d",
                        counted("gauss_2d", apps._gauss_2d))
    for shape in REDUCED_GRIDS:
        del calls[:]
        code, out, _ = run(capsys, "tabulate", *shape, "--method", "exact",
                           *(["--grid", "0.5:6:5"] * (1 + (shape[1] != "T4"))))
        assert code == 0
        assert calls == ["call", "values"], shape
    L = 6
    for stage, rules in ((None, L - 1), ("3", 1)):
        del calls[:]
        code, out, _ = run(capsys, "msgsc", "--L", str(L), "--gamma-t", "2",
                           "--grid", "0.5:8:16",
                           *(["--stage", stage] if stage else []))
        assert code == 0
        assert len(_csv_body(out)) == 16
        assert calls == ["gauss_2d"] * rules
    # A generic T1 grid is one Bromwich-line inversion in lockstep: it
    # calls the kernel no more often than its costliest point alone.
    from ordstat.distributions import HalfNormal
    monkeypatch.setattr(HalfNormal, "kernel_c",
                        counted("kernel_c", HalfNormal.kernel_c))
    t1 = ["--theorem", "T1", "--K", "10", "--dist", "halfnormal:1",
          "--method", "generic"]
    del calls[:]
    code, out, _ = run(capsys, "tabulate", *t1, "--grid", "2:16:16")
    assert code == 0
    grid = len(calls)
    alone = []
    for at, _ in _csv_body(out):
        del calls[:]
        code, _, _ = run(capsys, "eval", *t1, "--at", at)
        assert code == 0
        alone.append(len(calls))
    assert len(alone) == 16 and len(set(alone)) > 1
    assert 0 < grid <= max(alone)


# -- every selector resolves through ``partition.match_theorem`` --


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--partition", "K=4;Ks=4;groups=[1][2-4]", "--theorem", "T3",
      "--m", "2", "--at", "1,2"], "--theorem"),
    (["eval", "--partition", "K=5;Ks=4;groups=[1][2-4]", "--case", "a",
      "--at", "1,2"], "--case"),
    (["eval", "--theorem", "T2", "--K", "5", "--Ks", "3", "--m", "2",
      "--at", "1,2"], "--Ks"),
    (["eval", "--theorem", "T1", "--K", "4", "--m", "2", "--at", "2"],
     "--m"),
    (["eval", "--theorem", "T4", "--K", "5", "--Ks", "3", "--m", "1",
      "--at", "2"], "--m"),
    (["sample", "--partition", "K=3;Ks=2;groups=[1][2]", "--K", "4",
      "--n", "5"], "--K"),
    # At Ks = 2 both pairs are case d: no m is rank 1 of a case-a pair.
    (["eval", "--theorem", "T5", "--K", "4", "--Ks", "2", "--case", "a",
      "--at", "1,0.5"], "--case"),
], ids=["partition-theorem", "partition-case", "T2-Ks", "T1-m", "T4-m",
        "sample-partition-K", "T5-case-a-at-Ks2"])
def test_ignored_selector_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err


def _mean_rank(K, r):
    # E of the rank-r value of K unit exponentials.
    return sum(1.0 / j for j in range(r, K + 1))


def _selector_routes(Kmax=6):
    """(K, --theorem flags, the equal partition, rank groups) for every
    family at K <= Kmax: every Ks and m, and each T5 shape also by
    ``--case``."""
    out = []
    for K in range(1, Kmax + 1):
        every = tuple(range(1, K + 1))
        out.append((K, ["--theorem", "T1"], K, [every]))
        for m in range(1, K + 1):
            if K >= 2:
                out.append((K, ["--theorem", "T2", "--m", str(m)], K,
                            [(m,), every[:m - 1] + every[m:]]))
            if m < K:
                out.append((K, ["--theorem", "T3", "--m", str(m)], K,
                            [every[:m], every[m:]]))
        for Ks in range(1, K + 1):
            best = every[:Ks]
            ks = ["--Ks", str(Ks)]
            out.append((K, ["--theorem", "T4", *ks], Ks, [best]))
            for m in range(1, Ks + 1):
                if Ks >= 2:
                    one = [(m,), best[:m - 1] + best[m:]]
                    case = t5_case(Ks, m)
                    out.append((K, ["--theorem", "T5", *ks, "--m", str(m)],
                                Ks, one))
                    derived = {"a": 1, "c": Ks - 1, "d": Ks}.get(case)
                    by_case = ["--case", case] + (["--m", str(m)]
                                                  if derived != m else [])
                    out.append((K, ["--theorem", "T5", *ks, *by_case], Ks,
                                one))
                if m < Ks:
                    out.append((K, ["--theorem", "T6", *ks, "--m", str(m)],
                                Ks, [best[:m], best[m:]]))
    return [pytest.param(*o, id=" ".join([*o[1], "--K", str(o[0])]))
            for o in out]


def _without_command_line(text):
    return [ln for ln in text.splitlines()
            if not ln.startswith("# command:")]


@pytest.mark.parametrize("K, flags, Ks, groups", _selector_routes())
def test_theorem_flags_match_partition(capsys, K, flags, Ks, groups):
    part = ["--partition", Partition(K, Ks, tuple(groups)).format()]
    flags = [*flags, "--K", str(K)]
    parser = cli._build_parser()
    shape = cli._resolve_shape(parser.parse_args(["eval", *flags]))
    assert shape == cli._resolve_shape(parser.parse_args(["eval", *part]))
    means = [sum(_mean_rank(K, r) for r in g) for g in groups]
    if shape.swap:
        groups = groups[::-1]
    at = "--at=" + ",".join(f"{v:.4g}" for v in means)
    grid = [f"--grid={0.5 * v:.4g}:{1.5 * v:.4g}:2" for v in means]
    for method in ("exact", "generic"):
        outs = []
        for sel in (flags, part):
            for cmd in (["eval", at], ["tabulate", *grid]):
                code, out, err = run(capsys, cmd[0], *sel, *cmd[1:],
                                     "--method", method)
                assert code == 0, err
                outs.append(_without_command_line(out))
        assert outs[:2] == outs[2:]
        assert f"# shape: {shape.id}" in outs[1]


@pytest.mark.parametrize("flags, same, sid", [
    (["--theorem", "T5", "--K", "6", "--Ks", "6", "--m", "2"],
     ["--theorem", "T2", "--K", "6", "--m", "2"], "T2"),
    (["--theorem", "T5", "--K", "6", "--Ks", "6", "--case", "d"],
     ["--theorem", "T2", "--K", "6", "--m", "6"], "T2"),
    (["--theorem", "T6", "--K", "6", "--Ks", "6", "--m", "4"],
     ["--theorem", "T3", "--K", "6", "--m", "4"], "T3"),
    (["--theorem", "T4", "--K", "6", "--Ks", "6"],
     ["--theorem", "T1", "--K", "6"], "T1"),
], ids=["T5-as-T2", "T5d-as-T2", "T6-as-T3", "T4-as-T1"])
@pytest.mark.parametrize("method", ["exact", "generic"])
def test_full_selection_takes_closed_form(capsys, flags, same, sid, method):
    # At Ks = K, T4-T6 are T1-T3: the same density, byte for byte.
    grid = ["--grid=1:4:3"] * (1 + (sid != "T1"))
    outs = []
    for sel in (flags, same):
        code, out, _ = run(capsys, "tabulate", *sel, *grid, "--method",
                           method)
        assert code == 0
        outs.append(_without_command_line(out))
    assert outs[0] == outs[1]
    assert f"# shape: {sid}" in outs[0]
