"""Per-layer tracing of ``ordstat`` from outside the package.

:meth:`Tracer.install` replaces the public functions at each module
boundary with wrappers, patching every name where it is looked up, and
the call methods of the ``exact_exp`` density classes on the classes
themselves.  :meth:`Tracer.uninstall` puts the originals back.  No source file of the
package changes.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of the wrapped calls inside it.  Coarse
boundaries (CLI calls, verify suites, density points, quadratures,
inversions, Monte Carlo and brute-force calls) also record a span: name,
start, end, parent span and the grid or suite id.  The innermost layers
(step sums, quadrature integrands, distribution kernels) run millions of
times per job, so they only add to counts and self times.

Counts depend only on the inputs, never on timing.  Spans stay in memory
until :meth:`Tracer.write_spans`.
"""

import functools
import time
import warnings
from array import array
from collections import Counter, defaultdict

import numpy as np

# Density-point families, in report order.
FAMILIES = ("T1", "T2", "T3", "T4", "T5a", "T5b", "T5c", "T5d", "T6")

# ``exact_exp`` density classes and the family of their points.  The fine
# densities are building blocks of T5 and T6; ``verify`` and ``apps`` also
# evaluate them directly, and those calls count as the layer's calls, but
# they are no family's points.
_EXACT_CLASSES = {
    "ErlangSum": "T1",
    "OneVsRestAllK": "T2",
    "HeadTailAllK": "T3",
    "GscSum": "T4",
    "BestKsOneVsRest": "T5",
    "BestKsHeadTail": "T6",
    "FineOneMidLast": None,
    "FineHeadMidLast": None,
    "FineHeadNextLast": None,
    "FineLastHead": None,
}


def _t5_case(Ks, m):
    if m == Ks or (m == 1 and Ks == 2):
        return "d"
    if m == 1:
        return "a"
    return "c" if m == Ks - 1 else "b"


def _generic_family(name, args):
    if name == "t5_jpdf":
        _, _, Ks, m = args[:4]
        return "T5" + _t5_case(Ks, m)
    return "T" + name[1]


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside one ``ordstat`` module."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Wrappers, counters and spans for one traced pass."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []          # frames: [layer, child_s, span index]
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)   # wall time of outermost calls
        self.points = defaultdict(list)     # "layer.Tx" -> durations (s)
        self.tag = ""
        self._tags = {}
        self._names = {}
        self._span = -1
        self._spans = {k: array(t) for k, t in (
            ("name", "H"), ("tag", "H"), ("parent", "l"),
            ("start", "d"), ("end", "d"))}
        self._patches = []
        self._t0 = self.clock()

    # -- frames -----------------------------------------------------------

    def wrap(self, layer, fn, span=None, tally=None, point=None,
             outermost=False):
        """Trace calls of ``fn`` as ``layer``.

        ``span`` names the span to record (None records none), ``tally``
        is called with ``(args, kwargs, result)`` to add counts, and
        ``point`` maps ``args`` to a family id whose point durations are
        kept for percentiles (outermost calls of the layer only).  With
        ``outermost`` a call made from inside ``layer`` runs untraced, so
        its time stays in the caller's self time.
        """
        stack, clock = self.stack, self.clock
        calls, self_s, outer_s = self.calls, self.self_s, self.outer_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if outermost and parent == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, -1]
            if span is not None:
                frame[2] = self._open(span)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[layer] += 1
                self_s[layer] += dur - frame[1]
                if parent != layer:
                    outer_s[layer] += dur
                    if point is not None:
                        self.points[f"{layer}.{point(args)}"].append(dur)
                if span is not None:
                    self._close(frame[2], t0, t1)
            if tally is not None:
                tally(args, kwargs, result)
            return result

        return traced

    def _open(self, name):
        sp = self._spans
        idx = len(sp["name"])
        sp["name"].append(self._names.setdefault(name, len(self._names)))
        sp["tag"].append(self._tags.setdefault(self.tag, len(self._tags)))
        sp["parent"].append(self._span)
        sp["start"].append(0.0)
        sp["end"].append(0.0)
        self._span = idx
        return idx

    def _close(self, idx, t0, t1):
        sp = self._spans
        sp["start"][idx] = t0 - self._t0
        sp["end"][idx] = t1 - self._t0
        self._span = sp["parent"][idx]

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------

    def _patch(self, obj, name, value):
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _patch_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def install(self):
        from ordstat import (_backend, apps, cli, distributions, exact_exp,
                             generic_joint, kernels, mc_oracle, verify)
        import scipy.integrate

        self._patch(cli, "main", self.wrap("cli", cli.main, span="cli"))
        for name in ("msgsc_output_cdf", "msgsc_stage_probability"):
            self._patch(cli, name,
                        self.wrap("apps", getattr(cli, name), span=name))

        # On the classes, so every route to a density is traced: the
        # factories, direct constructions in ``verify`` and ``apps``, and
        # ``_Density.evaluate``.  Calls between densities stay untraced.
        for name, fam in _EXACT_CLASSES.items():
            cls = getattr(exact_exp, name)
            point = None
            if fam == "T5":
                point = lambda a: "T5" + a[0].case
            elif fam is not None:
                point = lambda a, fam=fam: fam
            self._patch(cls, "__call__", self.wrap(
                "exact_exp", cls.__call__, span=f"exact_exp.{name}",
                point=point, outermost=True))
        self._patch(exact_exp.ErlangSum, "cdf", self.wrap(
            "exact_exp", exact_exp.ErlangSum.cdf,
            span="exact_exp.ErlangSum.cdf", outermost=True))
        for name in ("poly_exp_eval", "poly_exp_eval_scale"):
            self._patch(_backend, name, self.wrap(
                "stepsum", getattr(_backend, name),
                tally=lambda a, k, r: self.counts.update(
                    {"stepsum.terms": len(a[0])})))

        for fam in range(1, 7):
            name = f"t{fam}_pdf" if fam in (1, 4) else f"t{fam}_jpdf"
            self._patch(generic_joint, name, self.wrap(
                "generic_joint", getattr(generic_joint, name),
                span=f"generic_joint.{name}",
                point=functools.partial(_generic_family, name)))
        self._patch(generic_joint, "invert_numeric", self.wrap(
            "ilt", generic_joint.invert_numeric, span="ilt",
            tally=self._ilt_tally))

        for cls in (distributions.Exponential, distributions.HalfNormal):
            for meth, key in (("pdf1", "distributions.pdf1_calls"),
                              ("cdf1", "distributions.cdf1_calls"),
                              ("kernel_c", "distributions.kernel_calls"),
                              ("kernel_e", "distributions.kernel_calls"),
                              ("kernel_mu", "distributions.kernel_calls")):
                self._patch(cls, meth, self.counted(key, getattr(cls, meth)))

        # Every module that calls ``integrate.quad`` through its own name.
        for mod in (exact_exp, generic_joint, verify, kernels, apps,
                    distributions):
            quad = self._quad(scipy.integrate.quad,
                              mod.__name__.rpartition(".")[2])
            self._patch(mod, "integrate",
                        _IntegrateProxy(scipy.integrate, quad))

        for fam, fn in list(verify._BRUTE.items()):
            self._patch_item(verify._BRUTE, fam, self.wrap(
                "kernels.brute", fn, span=f"kernels.{fn.__name__}"))
        self._patch(kernels, "reorder_check", self.wrap(
            "kernels.reorder", kernels.reorder_check,
            span="kernels.reorder_check"))

        def rows(a, k, r):
            self.counts["mc_oracle.rows"] += a[0].n_samples

        self._patch(mc_oracle, "sample_partial_sums", self.wrap(
            "mc_oracle", mc_oracle.sample_partial_sums,
            span="mc_oracle.sample_partial_sums", tally=rows))
        for name in ("empirical_density", "ks_distance", "bin_agreement"):
            self._patch(mc_oracle, name, self.wrap(
                "mc_oracle", getattr(mc_oracle, name),
                span=f"mc_oracle.{name}"))

        for suite, fn in list(verify._SUITE_FNS.items()):
            self._patch_item(verify._SUITE_FNS, suite, self._suite(suite, fn))

    def uninstall(self):
        while self._patches:
            obj, name, orig = self._patches.pop()
            if isinstance(obj, dict):
                obj[name] = orig
            else:
                setattr(obj, name, orig)

    def _suite(self, suite, fn):
        traced = self.wrap(f"verify.{suite}", fn, span=f"verify.{suite}")

        @functools.wraps(fn)
        def run(*args, **kwargs):
            outer, self.tag = self.tag, f"verify/{suite}"
            try:
                return traced(*args, **kwargs)
            finally:
                self.tag = outer

        return run

    def _ilt_tally(self, args, kwargs, res):
        c = self.counts
        c["ilt.neval"] += res.neval
        c["ilt.unconverged"] += not res.converged
        c["ilt.dehoog_wins"] += res.method.startswith("dehoog")

    def _quad(self, quad, owner):
        """``quad`` that counts evaluations and abnormal exits.

        The original runs with ``full_output=1``, which hands back the
        evaluation count and, on an abnormal exit, the message instead of
        a warning; the wrapper then warns as the original would have, so
        callers that silence integration warnings still silence them.
        The integrand's own time is booked to ``owner``, the module that
        called ``quad``.
        """
        stack, clock, self_s = self.stack, self.clock, self.self_s
        counts = self.counts

        def integrand_of(func):
            def integrand(*args):
                frame = [owner, 0.0, -1]
                stack.append(frame)
                t0 = clock()
                try:
                    return func(*args)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][1] += dur
                    self_s[owner] += dur - frame[1]

            return integrand

        def run(func, a, b, *args, **kwargs):
            full = kwargs.get("full_output", 0)
            kwargs["full_output"] = 1
            res = quad(integrand_of(func), a, b, *args, **kwargs)
            counts["quad.integrand_evals"] += res[2].get("neval", 0)
            abnormal = len(res) > 3
            counts["quad.abnormal"] += abnormal
            if full:
                return res
            if abnormal:
                from scipy.integrate import IntegrationWarning
                warnings.warn(res[3], IntegrationWarning, stacklevel=3)
            return res[:2]

        return self.wrap("quad", run, span="quad")

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer counts and times as a flat ``name -> value`` dict."""
        c, calls, selfs, outer = (self.counts, self.calls, self.self_s,
                                  self.outer_s)
        out = {
            "cli.calls": calls["cli"], "cli.self_s": selfs["cli"],
            "exact_exp.calls": calls["exact_exp"],
            "exact_exp.self_s": selfs["exact_exp"],
            "stepsum.calls": calls["stepsum"],
            "stepsum.terms": c["stepsum.terms"],
            "stepsum.self_s": selfs["stepsum"],
            "quad.calls": calls["quad"],
            "quad.integrand_evals": c["quad.integrand_evals"],
            "quad.self_s": selfs["quad"],
            "quad.abnormal": c["quad.abnormal"],
            "ilt.calls": calls["ilt"], "ilt.neval": c["ilt.neval"],
            "ilt.self_s": selfs["ilt"],
            "ilt.unconverged": c["ilt.unconverged"],
            "ilt.dehoog_wins": c["ilt.dehoog_wins"],
            "generic_joint.calls": calls["generic_joint"],
            "generic_joint.self_s": selfs["generic_joint"],
            "distributions.pdf1_calls": c["distributions.pdf1_calls"],
            "distributions.cdf1_calls": c["distributions.cdf1_calls"],
            "distributions.kernel_calls": c["distributions.kernel_calls"],
            "kernels.brute_calls": calls["kernels.brute"],
            "kernels.brute_s": outer["kernels.brute"],
            "kernels.reorder_calls": calls["kernels.reorder"],
            "kernels.reorder_s": outer["kernels.reorder"],
            "mc_oracle.rows": c["mc_oracle.rows"],
            "mc_oracle.s": outer["mc_oracle"],
            "apps.calls": calls["apps"], "apps.self_s": selfs["apps"],
        }
        for layer in ("exact_exp", "generic_joint"):
            for fam in FAMILIES:
                ms = np.asarray(self.points.get(f"{layer}.{fam}", ())) * 1e3
                for q, label in ((50, "p50"), (99, "p99")):
                    out[f"{layer}.{fam}.point_ms.{label}"] = (
                        float(np.percentile(ms, q)) if ms.size else 0.0)
        return out

    def suite_seconds(self, names):
        return {f"verify.{n}.s": self.outer_s[f"verify.{n}"] for n in names}

    def write_spans(self, path):
        """Write the recorded spans as a compressed ``.npz`` file."""
        sp = self._spans
        names = sorted(self._names, key=self._names.get)
        tags = sorted(self._tags, key=self._tags.get)
        np.savez_compressed(
            path, names=np.array(names), tags=np.array(tags),
            **{k: np.frombuffer(v, dtype=v.typecode) for k, v in sp.items()})
        return len(sp["name"])
