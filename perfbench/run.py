"""Benchmark of ``ordstat``: three workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact_tab --seed 1 --seconds 25 \\
        --trace 0

Workloads (see ``workloads.py``): ``exact_tab`` tabulates every family
T1-T6 on the exact exponential path at K = 5, 10, 20, 30 plus MS-GSC grids;
``generic_tab`` tabulates them on the generic path for ``halfnormal:1`` and
``exp:1`` at K = 4, 5, 6, plus T1 at K = 10, 20, 30; ``verify_quick`` runs
``ordstat verify`` on the quick profile.

One sequential caller, with ``ORDSTAT_THREADS`` unset, runs the job in a
fresh worker process (``worker.py``) in a closed loop: the next command
starts when the previous one returns.  Four more fresh interpreters only
set up, two before the worker and two after it, so that ``setup_s`` is a
median of five samples spread over the run.  After the timed passes every
output of the first pass is checked against a reference (``oracle.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of one extra traced pass (``tracer.py``), the untraced
per-family times and the import-time breakdown of the set-up, and writes
the traced spans to ``perfbench/out/``.  Human-readable lines come first;
the last line of standard output is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up-only spawns on each side of the worker, so that the set-up samples
# span the run rather than one moment of the host's drifting speed.
SETUP_EACH_SIDE = 2
WORKER_TIMEOUT_S = 150
GROUPS = ("T1", "T2", "T3", "T4", "T5", "T6", "msgsc")
IMPORT_MODULES = ("ordstat.cli", "ordstat.verify", "scipy.stats",
                  "scipy.integrate", "numpy")

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def metric_units():
    """``name -> unit`` of the end-to-end and per-layer metrics, as
    ``BENCHMARK.json`` lists them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[key]}
                 for key in ("end_to_end", "per_layer"))


def _env():
    env = dict(os.environ)
    env.pop("ORDSTAT_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def _worker(args, extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          timeout=timeout, check=True, text=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.realpath(out["src"]) != os.path.realpath(
            os.path.join(SRC, "ordstat")):
        raise RuntimeError(f"worker imported ordstat from {out['src']}, "
                           f"not from {SRC}")
    return out


def import_times():
    """Cumulative import time per module of ``import ordstat.cli``.

    From ``python -X importtime`` in a fresh process.  A package whose own
    line the log omits (``scipy.integrate`` arrives through scipy's lazy
    loader) gets the sum of its shallowest submodule lines.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ordstat.cli"],
        cwd=ROOT, env=_env(), stderr=subprocess.PIPE, text=True, check=True,
        timeout=60)
    lines = []
    for ln in proc.stderr.splitlines():
        parts = ln.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        lines.append((name.strip(), depth, int(parts[1]) * 1e-6))
    out = {}
    for mod in IMPORT_MODULES:
        own = [s for n, _, s in lines if n == mod]
        if own:
            out[f"setup.import.{mod}_s"] = own[0]
            continue
        subs = [(d, s) for n, d, s in lines if n.startswith(mod + ".")]
        top = min((d for d, _ in subs), default=0)
        out[f"setup.import.{mod}_s"] = sum(s for d, s in subs if d == top)
    return out


def _fmt(v):
    return format(v, ".6g") if isinstance(v, float) else str(v)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ordstat", "cli.py")):
        print(f"error: no ordstat sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    def setup_only():
        return [_worker(args, ["--setup-only"], 60)
                for _ in range(SETUP_EACH_SIDE)]

    setup = setup_only()
    extra = ["--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        extra += ["--trace", "--spans", os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.npz")]
    run = _worker(args, extra, WORKER_TIMEOUT_S)
    setup += [run, *setup_only()]

    # References are computed here, after the timed worker has exited.
    sys.path.insert(0, SRC)
    import oracle
    checker = oracle.Checker()
    ops = workloads.build(args.workload, args.seed)
    for op in ops:
        checker.check(op, run["results"][op.id])
    correct = checker.unexpected == 0 and not run["mismatched"]

    walls = [q["wall_s"] for q in run["passes"]]
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{len(walls)} timed passes")

    def listing(samples, key):
        return ", ".join(_fmt(q[key]) for q in samples)

    print(f"  wall {listing(run['passes'], 'wall_s')} s at reference speed "
          f"(measured {listing(run['passes'], 'raw_s')} s)")
    print(f"  set-up {listing(setup, 'setup_s')} s at reference speed "
          f"(measured {listing(setup, 'setup_raw_s')} s)")
    for op in ops:
        r = run["results"][op.id]
        if r["rc"] != 0:
            print(f"  {op.id}: exit {r['rc']} {r['error'] or ''}".rstrip())
    for kind in sorted(checker.by_kind):
        print(f"check {kind}: {checker.by_kind[kind]} outputs, "
              f"{checker.failed_by_kind[kind]} failed")
    for op_id, (n, total, worst) in checker.known.items():
        print(f"known defect {op_id}: {n} of {total} failed, worst error "
              f"{worst:.3g}")
    for op_id, point, value, ref in checker.failures[:12]:
        print(f"  fail {op_id} at {point}: got {value!r}, reference {ref!r}")
    print(f"fail_share {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted}; "
          f"{checker.unexpected} outside the known defects)")
    if run["mismatched"]:
        print(f"outputs differ between passes: {run['mismatched']}")

    if args.trace:
        metrics = dict(run["trace"]["layers"])
        for g in GROUPS:
            metrics[f"{g}_s"] = statistics.median(
                q["groups"].get(g, 0.0) for q in run["passes"])
        metrics.update(import_times())
        metrics["fail_share"] = checker.failed / checker.attempted
        units = metric_units()[1]
        print(f"traced pass {run['trace']['wall_s']:.4g} s, untraced median "
              f"{statistics.median(walls):.4g} s, overhead "
              f"{metrics['trace.overhead_s']:.4g} s; "
              f"{run['trace']['spans']} spans written to {OUT}")
    else:
        metrics = {"setup_s": statistics.median(q["setup_s"]
                                                for q in setup),
                   "wall_s": statistics.median(walls),
                   "peak_rss_mb": run["peak_rss_mb"]}
        units = metric_units()[0]
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for k in units:
        print(f"metric {k} = {_fmt(metrics[k])} {units[k]}")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
