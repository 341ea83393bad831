"""Command-line front end for density evaluation, tabulation, verification,
the threshold-combining application, and sampling.

Exit codes are stable and documented:

* 0 success
* 1 verification suite failure
* 2 argument parsing or validation error
* 3 unsupported partition shape (the diagnostic names the nearest
  supported reshaping)
* 4 numeric non-convergence (the diagnostic reports the achieved error)

A shape is named by ``--partition`` or by the ``--theorem`` flags, not
both, and a flag that the shape does not use is an error.  Both resolve
through ``partition.match_theorem``: at Ks = K, T4-T6 report T1-T3 and
take their closed forms (generic T4 is then the T1 inversion at
``--digits``), and a T3 or T6 with a one-rank side reports T2 or T5.

All tabular output is CSV with ``#``-prefixed metadata lines (command
line, version, seed, tolerance settings) so artifacts are reproducible
from their own headers.  Floats print with 17 significant digits, enough
to round-trip doubles exactly.  A grid of ``tabulate`` or ``msgsc`` is
evaluated in one call on coordinate arrays: its points are the rows of
one rule wherever the family has an array form (``generic_joint.resolve``),
and each MS-GSC stage is one rule.  Rows print x-major.
"""

import argparse
import ctypes
import functools
import math
import shlex
import sys

import numpy as np

from ordstat import __version__, generic_joint
from ordstat.apps import MsGscConfig, msgsc_output_cdf, msgsc_stage_probability
from ordstat.distributions import Exponential, HalfNormal
from ordstat.errors import (ConvergenceError, DivergentIntegralError,
                            DomainError, UnsupportedShapeError)
from ordstat.mc_oracle import SampleSpec, sample_partial_sums
from ordstat.partition import (Partition, match_theorem, t5_case,
                               theorem_partition)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4

def _fmt(v):
    return format(float(v), ".17g")


def _parse_dist(text):
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        value = float(arg) if arg else 1.0
    except ValueError:
        raise DomainError(f"bad distribution parameter in {text!r}")
    if name in ("exp", "exponential"):
        return Exponential(value)
    if name in ("halfnormal", "hnorm"):
        return HalfNormal(value)
    raise DomainError(f"unknown distribution {text!r}; expected "
                      "exp:<mean> or halfnormal:<sigma>")


def _parse_grid_axis(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"bad grid axis {text!r}; expected min:max:count")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"bad grid axis {text!r}; expected min:max:count")
    if n < 2:
        raise DomainError("grid counts must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise DomainError("grid needs finite max > min")
    return lo, hi, n


def _parse_at(text, dim):
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"--at needs numbers, not {text!r}") from None
    if len(vals) != dim:
        raise DomainError(f"--at needs {dim} comma-separated value(s) for "
                          "this shape")
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"--at needs finite values, not {text!r}")
    return vals


def _meta_lines(argv, extra):
    lines = [f"# command: ordstat {shlex.join(argv)}",
             f"# version: {__version__}"]
    lines.extend(f"# {k}: {v}" for k, v in extra)
    return lines


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _require(value, flag, context):
    if value is None:
        raise DomainError(f"{context} requires {flag}")
    return value


def _resolve_shape(args):
    """Selector flags -> the ``TheoremMatch`` that ``match_theorem`` gives."""
    if args.partition:
        _reject_with_partition(args, "theorem", "K", "Ks", "m", "case")
        return match_theorem(Partition.parse(args.partition))
    theorem = _require(args.theorem, "--theorem (or --partition)",
                       "shape selection")
    m = args.m
    if args.case:
        if theorem.upper() != "T5":
            raise DomainError("--case only applies to --theorem T5")
        m = _case_m(args.case, _require(args.Ks, "--Ks", "T5"), m)
    return match_theorem(theorem_partition(theorem, args.K, args.Ks, m))


def _reject_with_partition(args, *names):
    given = [f"--{n}" for n in names if getattr(args, n) is not None]
    if given:
        raise DomainError("--partition names the whole shape; drop "
                          f"{', '.join(given)}")


def _case_m(case, Ks, m):
    """The rank m of T5 case ``case`` at Ks, checked against ``--m``."""
    if m is None:
        if case == "b":
            raise DomainError("case b spans 2 <= m <= Ks-2; give --m")
        m = {"a": 1, "c": Ks - 1, "d": Ks}[case]
    if t5_case(Ks, m) != case:
        raise DomainError(f"--case {case} disagrees with m={m} at Ks={Ks} "
                          f"(that pair is case {t5_case(Ks, m)})")
    return m


def _grid_points(grid):
    """Coordinate arrays of a grid, x-major: axis i holds lo + i * step."""
    return np.meshgrid(*(lo + np.arange(n) * ((hi - lo) / (n - 1))
                         for lo, hi, n in grid), indexing="ij")


def _columns(*cols):
    """CSV rows from columns of one shape, in C order."""
    return zip(*(np.ravel(c).tolist() for c in cols))


def _csv(meta, header, rows):
    lines = list(meta)
    lines.append(",".join(header))
    # One template per row: '%.17g' % v is format(v, '.17g'), as ``_fmt``.
    row_text = ",".join(["%.17g"] * len(header))
    lines.extend(row_text % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_eval(args, argv):
    shape = _resolve_shape(args)
    fn, dim = generic_joint.resolve(shape, _parse_dist(args.dist),
                                    args.method, args.digits)
    at = _parse_at(_require(args.at, "--at", "eval"), dim)
    print(_fmt(fn(*at)))
    return EXIT_OK


def _cmd_tabulate(args, argv):
    shape = _resolve_shape(args)
    fn, dim = generic_joint.resolve(shape, _parse_dist(args.dist),
                                    args.method, args.digits)
    grid = tuple(_parse_grid_axis(g) for g in args.grid or ())
    if len(grid) != dim:
        raise DomainError(f"shape {shape.id} needs {dim} --grid axis spec(s)")
    points = _grid_points(grid)
    rows = _columns(*points, fn(*points))
    meta = _meta_lines(argv, [
        ("shape", shape.id), ("distribution", args.dist),
        ("grid", ";".join(f"{a[0]:g}:{a[1]:g}:{a[2]}" for a in grid)),
        ("digits", args.digits)])
    header = ("x", "pdf") if dim == 1 else ("x", "y", "pdf")
    _write_text(args.output, _csv(meta, header, rows))
    return EXIT_OK


def _cmd_verify(args, argv):
    # Imported here: no other command needs the verify suites.
    from ordstat import verify
    report = verify.run_suites(seed=args.seed, quick=not args.full,
                               suites=args.suite or None, depth=args.depth)
    sys.stdout.write(verify.render_report(report))
    if args.json:
        _write_text(args.json, verify.report_json(report))
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY


def _cmd_msgsc(args, argv):
    cfg = MsGscConfig(L=args.L, gamma_T=args.gamma_t,
                      gamma_bar=args.gamma_bar,
                      below_threshold=args.convention)
    if args.stage is not None:
        fn = lambda x: msgsc_stage_probability(cfg, x, args.stage)
        col = f"stage{args.stage}_probability"
    else:
        fn = lambda x: msgsc_output_cdf(cfg, x)
        col = "cdf"
    if args.at is not None:
        if args.grid:
            raise DomainError("msgsc takes --at or --grid, not both")
        print(_fmt(fn(*_parse_at(args.at, 1))))
        return EXIT_OK
    grid = tuple(_parse_grid_axis(g) for g in args.grid or ())
    if len(grid) != 1:
        raise DomainError("msgsc tabulation needs exactly one --grid axis")
    x, = _grid_points(grid)
    rows = _columns(x, fn(x))
    meta = _meta_lines(argv, [
        ("L", args.L), ("gamma_T", _fmt(args.gamma_t)),
        ("gamma_bar", _fmt(args.gamma_bar)),
        ("below_threshold", args.convention)])
    _write_text(args.output, _csv(meta, ("x", col), rows))
    return EXIT_OK


def _cmd_sample(args, argv):
    dist = _parse_dist(args.dist)
    if args.partition:
        _reject_with_partition(args, "K", "Ks")
        part = Partition.parse(args.partition)
    else:
        K = _require(args.K, "--K (or --partition)", "sample")
        # The T4 shape [1..Ks] is the T1 shape [1..K] when Ks = K.
        part = theorem_partition("T4", K, K if args.Ks is None else args.Ks)
    spec = SampleSpec(dist, part.K, part.Ks, part, args.n, args.seed)
    sums = sample_partial_sums(spec)
    meta = _meta_lines(argv, [
        ("distribution", args.dist), ("partition", part.format()),
        ("n_samples", args.n), ("seed", args.seed)])
    header = tuple(f"s{i + 1}" for i in range(sums.shape[1]))
    _write_text(args.output, _csv(meta, header, sums))
    return EXIT_OK


def _digits(text):
    # The range that the numeric inversion accepts.
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 4 <= n <= 12:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [4, 12], got {text!r}")
    return n


def _add_shape_flags(p):
    p.add_argument("--theorem",
                   help="evaluator family T1..T6; resolved as the equal "
                        "--partition, so T4-T6 at Ks = K report T1-T3")
    p.add_argument("--case", choices=("a", "b", "c", "d"),
                   help="T5 reduction case (fixes m for a/c/d)")
    p.add_argument("--partition",
                   help="partition string K=..;Ks=..;groups=[..][..]")
    p.add_argument("--K", type=int, help="number of variables")
    p.add_argument("--Ks", type=int, help="number of selected (largest) ranks")
    p.add_argument("--m", type=int, help="rank or head length selector")
    p.add_argument("--dist", default="exp:1",
                   help="exp:<mean> or halfnormal:<sigma> (default exp:1)")
    p.add_argument("--method", choices=("auto", "exact", "generic"),
                   default="auto",
                   help="evaluation path (auto: exact for exponential)")
    p.add_argument("--digits", type=_digits, default=8,
                   help="accuracy target of the generic T1 inversion, "
                        "4 to 12 (default 8)")


@functools.cache
def _build_parser():
    # Built once per process: parsing leaves the parser as it was.
    top = argparse.ArgumentParser(
        prog="ordstat",
        description="Distributions of partial sums of ordered variables.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one density value")
    _add_shape_flags(p)
    p.add_argument("--at", help="comma-separated evaluation point")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("tabulate", help="evaluate a density on a grid")
    _add_shape_flags(p)
    p.add_argument("--grid", action="append",
                   help="axis spec min:max:count (repeat per axis)")
    p.add_argument("--output", default="-", help="CSV path (default stdout)")
    p.set_defaults(handler=_cmd_tabulate)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    # ``verify.run_suites`` refuses unknown suite names.
    p.add_argument("--suite", action="append",
                   help="run only the named suite (repeatable)")
    p.add_argument("--depth", type=int,
                   help="restrict the identity suite to one nesting depth")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--full", action="store_true",
                   help="acceptance-size runs (default is the quick profile)")
    p.add_argument("--json", help="also write the JSON report here")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("msgsc", help="threshold-combining output statistics")
    p.add_argument("--L", type=int, required=True, help="number of branches")
    p.add_argument("--gamma-t", type=float, required=True,
                   dest="gamma_t", help="combining threshold")
    p.add_argument("--gamma-bar", type=float, default=1.0, dest="gamma_bar",
                   help="mean branch value (default 1)")
    p.add_argument("--convention", choices=("sum", "outage"), default="sum",
                   help="below-threshold output convention")
    p.add_argument("--stage", type=int,
                   help="tabulate the probability of stopping at this stage")
    p.add_argument("--at", help="single evaluation point")
    p.add_argument("--grid", action="append",
                   help="axis spec min:max:count")
    p.add_argument("--output", default="-", help="CSV path (default stdout)")
    p.set_defaults(handler=_cmd_msgsc)

    p = sub.add_parser("sample", help="draw partial-sum samples")
    p.add_argument("--dist", default="exp:1")
    p.add_argument("--partition",
                   help="partition string K=..;Ks=..;groups=[..][..]")
    p.add_argument("--K", type=int)
    p.add_argument("--Ks", type=int)
    p.add_argument("--n", type=int, default=10000, help="number of rows")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default="-", help="CSV path (default stdout)")
    p.set_defaults(handler=_cmd_sample)
    return top


# mallopt(3) parameters of glibc's malloc.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _temporaries_on_heap():
    """Have glibc's malloc serve blocks up to 8 MiB from its heap.

    Above its mmap threshold (128 KiB at start) glibc maps every block
    afresh and unmaps it when freed, so each numpy temporary of that size
    faults in zeroed pages again: about 11,000 page faults in one pass of
    the generic tabulations, and as many in one ``verify``.  Freeing a
    mapped block raises the threshold to that block's size, which the
    import of a large library can do by accident; here the threshold is
    set on purpose, once per process.  The heap then keeps up to 16 MiB
    free at its top instead of returning it to the system.  Elsewhere
    than on glibc nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    _temporaries_on_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, argv)
    except UnsupportedShapeError as exc:
        msg = str(exc)
        if exc.nearest:
            msg += f"; nearest supported: {exc.nearest}"
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_SHAPE
    except (ConvergenceError, DivergentIntegralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
