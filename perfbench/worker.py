"""Run one workload's job in a fresh interpreter and report what it measured.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the checkout root
as working directory::

    python3 perfbench/worker.py --workload exact_tab --seed 1 \\
        --seconds 25 --spawned-at <CLOCK_MONOTONIC of the spawn> [--trace]

Set-up is measured from the spawn until ``import ordstat.cli`` has
returned and the job's command lines are built.  With ``--setup-only`` the
worker stops there.  Otherwise it runs the job in a closed loop: one
operation at a time, each through ``ordstat.cli.main`` in this process,
and another pass only while that pass should still end within
``--seconds``.  With ``--trace`` one more pass runs with the tracer
installed.  The last line of standard output is one JSON object.

Every time the worker reports is also given at the reference speed of
:class:`SpeedProbe`.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

_MONO = time.CLOCK_MONOTONIC

PROBE_LOOP = 10_000      # iterations of the probe loop
PROBE_EVERY_S = 0.025    # wall time between two probes
REF_PROBE_S = 1e-3       # the probe's duration at the reference speed


def _probe_loop():
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples how fast this host runs Python, while the worker works.

    Other tenants of the machine slow it by up to 2x, in phases that last
    from seconds to minutes, so a run's raw times say as much about the
    host as about ``ordstat``.  Every ``PROBE_EVERY_S`` of wall time
    ``SIGALRM`` times one run of a fixed pure-Python loop, which slows
    with the host.  A window's time, with the probes' own time taken out
    and scaled by ``REF_PROBE_S / median probe``, is the time the same work
    takes at the reference speed: on a host where the loop takes
    ``REF_PROBE_S``.  The probes cost about 3% of the worker's time.
    """

    def __init__(self):
        self.total_s = 0.0       # time spent in probes so far
        self._samples = []       # probe times since the last window closed

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _probe_loop()
        dt = time.perf_counter() - t0
        self.total_s += dt
        self._samples.append(dt)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def close_window(self):
        """The reference-speed scale of the window that ends now."""
        if not self._samples:
            self._tick()
        scale = REF_PROBE_S / statistics.median(self._samples)
        self._samples = []
        return scale


def _run_op(cli, op):
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))   # the tracer may patch cli.main
    except Exception:
        # An operation that raises past the CLI's own handlers fails its
        # points; the job goes on.
        rc = None
        error = traceback.format_exc(limit=3)
    return rc, error, buf.getvalue()


def _run_pass(ops, probe, tracer=None):
    """One pass over the job.

    Returns the pass's reference-speed time, its measured wall time, the
    reference-speed time per group, and the outputs.
    """
    from ordstat import cli
    groups = {}
    results = {}
    probed = probe.total_s
    t_pass = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.tag = op.id
        op_probed = probe.total_s
        t0 = time.perf_counter()
        rc, error, text = _run_op(cli, op)
        dt = time.perf_counter() - t0 - (probe.total_s - op_probed)
        groups[op.group] = groups.get(op.group, 0.0) + dt
        results[op.id] = {"rc": rc, "error": error, "text": text}
    raw = time.perf_counter() - t_pass
    scale = probe.close_window()
    work = (raw - (probe.total_s - probed)) * scale
    return work, raw, {g: t * scale for g, t in groups.items()}, results


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="write the traced pass's spans here")
    args = p.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    import ordstat.cli  # noqa: F401  (the set-up being measured)
    import workloads
    ops = workloads.build(args.workload, args.seed)
    setup_raw = time.clock_gettime(_MONO) - args.spawned_at
    out = {"setup_s": (setup_raw - probe.total_s) * probe.close_window(),
           "setup_raw_s": setup_raw,
           "src": os.path.dirname(ordstat.cli.__file__)}
    if args.setup_only:
        probe.stop()
        print(json.dumps(out))
        return 0

    passes = []
    first = None
    mismatched = set()
    t_start = time.perf_counter()
    while True:
        work, raw, groups, results = _run_pass(ops, probe)
        passes.append({"wall_s": work, "raw_s": raw, "groups": groups})
        if first is None:
            first = results
        else:
            mismatched.update(k for k, r in results.items()
                              if r["text"] != first[k]["text"])
        elapsed = time.perf_counter() - t_start
        if elapsed + raw > args.seconds:
            break
    out.update(passes=passes, results=first, mismatched=sorted(mismatched),
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            work, raw, groups, results = _run_pass(ops, probe, tracer)
        finally:
            tracer.uninstall()
        mismatched.update(k for k, r in results.items()
                          if r["text"] != first[k]["text"])
        untraced = statistics.median(p["wall_s"] for p in passes)
        layers = tracer.layer_metrics()
        from ordstat.verify import SUITE_NAMES
        layers.update(tracer.suite_seconds(SUITE_NAMES))
        layers["trace.overhead_s"] = work - untraced
        out.update(trace={"wall_s": work, "layers": layers},
                   mismatched=sorted(mismatched))
        if args.spans:
            out["trace"]["spans"] = tracer.write_spans(args.spans)
    probe.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
