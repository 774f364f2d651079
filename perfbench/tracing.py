"""Spans and counts at the package's layer boundaries, from outside the package.

The tracer replaces public functions where their callers look them up
(module attributes, the ``green.ESTIMATORS`` and ``suites.SUITES``
tables) with wrappers that record a span: name, parent span, start and
end.  Spans stay in memory; ``write_spans`` dumps them as JSON lines at
the end of a run.  A target that no longer exists is reported as absent
instead of failing the run, so the benchmark survives renames in the
package.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

TERMINATIONS = ("converged", "escaped_with_tail", "budget", "hit_zero", "hit_Ez",
                "divergent_to_minus_inf", "divergent_to_plus_inf")

# (module, attribute, span name): every place a workload's calls resolve
# the function.  Some names are bound in several modules by `from x import y`.
SPAN_TARGETS = (
    ("skewdyn.cli", "load_skew_product", "fileio.load_skew_product"),
    ("skewdyn.cli", "classify", "newton.classify"),
    ("skewdyn.raster", "classify", "newton.classify"),
    ("skewdyn.suites", "classify", "newton.classify"),
    ("skewdyn.newton", "newton_polygon", "newton.newton_polygon"),
    ("skewdyn.suites", "newton_polygon", "newton.newton_polygon"),
    ("skewdyn.cli", "render", "raster.render"),
    ("skewdyn.green", "ratio_orbit", "green.ratio_orbit"),
    ("skewdyn.green", "orbit_logs", "green.orbit_logs"),
    ("skewdyn.green", "g_p", "green.g_p"),
    ("skewdyn.regions", "g_p", "green.g_p"),
    ("skewdyn.suites", "verify_invariance", "regions.verify_invariance"),
    ("skewdyn.suites", "invariance_radii", "weights.invariance_radii"),
    ("skewdyn.suites", "julia_membership", "oracles.julia_membership"),
    ("skewdyn.suites", "g_h_infty_plus", "oracles.g_h_infty_plus"),
    ("skewdyn.suites", "monomial_reference", "oracles.monomial_reference"),
    ("skewdyn.regions", "classify_point", "regions.classify_point"),
    ("skewdyn.bottcher", "bottcher", "bottcher.bottcher"),
)
# estimators called by name outside the ESTIMATORS table
ESTIMATOR_TARGETS = (
    ("skewdyn.suites", "g_z_alpha_plus", "Gzap"),
    ("skewdyn.regions", "g_z_alpha", "Gza"),
)
# hot, cheap functions: counted, no span
COUNT_TARGETS = (
    ("skewdyn.regions", "eval_skew", "algebra.eval_skew"),
    ("skewdyn.bottcher", "eval_skew", "algebra.eval_skew"),
)
TABLE_TARGETS = (
    ("skewdyn.green", "ESTIMATORS", "green.estimator."),
    ("skewdyn.suites", "SUITES", "suites."),
)

# span names reported as <name>.s (and <name>.calls where listed)
TIMED_LAYERS = ("green.ratio_orbit", "green.orbit_logs", "green.g_p",
                "newton.classify", "newton.newton_polygon", "fileio.load_skew_product",
                "regions.verify_invariance", "weights.invariance_radii",
                "oracles.julia_membership", "oracles.g_h_infty_plus",
                "oracles.monomial_reference", "suites.monomial", "suites.hull",
                "suites.invariance", "suites.semiconjugate", "regions.classify_point",
                "bottcher.bottcher")
CALL_LAYERS = ("green.ratio_orbit", "green.orbit_logs", "newton.classify",
               "regions.classify_point", "bottcher.bottcher")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple] = []  # (owner, key, original, is_table)
        self._seen_absent: set[str] = set()

    # -- wrapping -----------------------------------------------------------

    def _missing(self, what: str) -> None:
        if what not in self._seen_absent:
            self._seen_absent.add(what)
            self.absent.append(what)

    def _span_wrapper(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self._missing(module)
            return
        original = getattr(owner, attr, None)
        if original is None:
            self._missing(f"{module}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, False))

    def _patch_table(self, module: str, attr: str, prefix: str) -> None:
        try:
            table = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self._missing(f"{module}.{attr}")
            return
        for key, fn in list(table.items()):
            on_result = self._on_estimate if prefix.startswith("green.") else None
            table[key] = self._span_wrapper(prefix + key, fn, on_result)
            self._patches.append((table, key, fn, True))

    # -- result counters ----------------------------------------------------

    def _on_estimate(self, est) -> None:
        term = getattr(est, "termination", None)
        if term is None:
            self._missing("GreenEstimate.termination")
            return
        self.counts["term." + term] += 1
        self.counts["n_used"] += est.n_used

    def _on_ratio(self, orbit) -> None:
        if orbit is None:
            return
        self.counts["ratio.hits"] += 1
        mags = getattr(orbit, "log_mags", None)
        if mags is None:
            self._missing("ratio_orbit result .log_mags")
        else:
            self.counts["ratio.steps"] += len(mags) - 1

    def _on_logs(self, logs) -> None:
        steps = getattr(logs, "steps", None)
        if steps is None:
            self._missing("orbit_logs result .steps")
        else:
            self.counts["logs.steps"] += len(steps) - 1

    def _on_render(self, paths) -> None:
        self.counts["raster.bytes"] += sum(Path(p).stat().st_size for p in paths.values())

    def install(self) -> None:
        hooks = {"green.ratio_orbit": self._on_ratio, "green.orbit_logs": self._on_logs,
                 "raster.render": self._on_render}
        for module, attr, name in SPAN_TARGETS:
            self._patch(module, attr,
                        lambda fn, n=name: self._span_wrapper(n, fn, hooks.get(n)))
        for module, attr, key in ESTIMATOR_TARGETS:
            self._patch(module, attr, lambda fn, k=key: self._span_wrapper(
                "green.estimator." + k, fn, self._on_estimate))
        for module, attr, name in COUNT_TARGETS:
            self._patch(module, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        for module, attr, prefix in TABLE_TARGETS:
            self._patch_table(module, attr, prefix)

    def uninstall(self) -> None:
        for owner, key, original, is_table in reversed(self._patches):
            if is_table:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def reset(self) -> None:
        """Start a new pass; absent names are kept."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) of this pass: seconds, self seconds, calls, counts.

        A layer's seconds count only its outermost spans; its self time is
        its span duration minus the durations of its direct child spans.
        """
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, parent, _, _) in enumerate(spans):
            calls[name] += 1
            group = "green.estimators" if name.startswith("green.estimator.") else name
            self_s[group] += dur[i] - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                inclusive[name] += dur[i]
        c = self.counts
        out = {f"{name}.s": (float(inclusive[name]), "s") for name in TIMED_LAYERS}
        out.update({f"{name}.calls": (calls[name], "count") for name in CALL_LAYERS})
        driver_steps = c["ratio.steps"] + c["logs.steps"]
        out.update({
            "green.ratio_orbit.steps": (c["ratio.steps"], "count"),
            "green.orbit_logs.steps": (c["logs.steps"], "count"),
            "green.estimators.self_s": (float(self_s["green.estimators"]), "s"),
            "green.step_yield": (c["n_used"] / driver_steps if driver_steps else 0.0,
                                 "ratio"),
            "green.ratio_hit_frac": (c["ratio.hits"] / calls["green.ratio_orbit"]
                                     if calls["green.ratio_orbit"] else 0.0, "ratio"),
            "raster.self_s": (float(self_s["raster.render"]), "s"),
            "raster.bytes": (c["raster.bytes"], "count"),
            "algebra.eval_skew.calls": (c["algebra.eval_skew"], "count"),
        })
        for tag in TERMINATIONS:
            out[f"green.term.{tag}"] = (c["term." + tag], "count")
        return out

    def other_terminations(self) -> dict[str, int]:
        """Termination tags the package returned that TERMINATIONS lacks."""
        known = {"term." + t for t in TERMINATIONS}
        return {k: v for k, v in self.counts.items()
                if k.startswith("term.") and k not in known}


def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON object per span: name, parent index (-1 at the top), start, end."""
    with open(path, "w") as fh:
        for name, parent, t0, t1 in spans:
            fh.write(json.dumps({"name": name, "parent": parent,
                                 "start": t0, "end": t1}) + "\n")
