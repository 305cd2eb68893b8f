"""Per-layer tracing for the benchmark, applied from outside the package.

The tracer replaces functions of the stopflow modules with counting,
timing wrappers for the duration of a traced pass and restores them after.
Each wrapper is installed in the namespace the call is resolved in: a
function imported by name into another module (``intervals`` imports
``v_curve``, ``v_boundary`` and ``min_over``; ``cli`` imports ``validate``)
is patched there as well, and ``fundmat`` reaches ``solve_ivp`` through its
own module global.

Hot calls (``OdeSolution.__call__`` fires about 170k times per
numerical pass) only add to aggregate counters.  Coarse boundaries -- the
benchmark's own solve of a config, the window scan, finalize,
``hjb_residual`` and a Monte Carlo block -- also record a span with name,
start, end and parent, from which self time is derived.

Wrapper times are inclusive: a numerical ``SolutionCurve.eval`` calls
``eval_batch``, so its time also appears in ``odesol.batch_eval_s``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
from scipy.integrate._ivp.common import OdeSolution

from stopflow import cli, fundmat, intervals, mc, odesol, problem, value

CONFIG_NAMES = ("ex1_onesided", "ex1_twosided", "ex2_left", "ex2_right")
SPAN_NAMES = ("solve", "scan", "finalize", "hjb", "mc_block")

# (metric, unit) for every per-layer metric a traced run reports.
LAYER_METRICS = (
    ("problem.validate_s", "s"),
    ("problem.expr_eval_calls", "count"),
    ("problem.expr_eval_points", "count"),
    ("problem.expr_eval_s", "s"),
    ("problem.pwi_between_calls", "count"),
    ("problem.pwi_between_s", "s"),
    ("fundmat.flow_builds", "count"),
    ("fundmat.flow_build_s", "s"),
    ("fundmat.pieces", "count"),
    ("fundmat.ivp_nfev", "count"),
    ("fundmat.dense_eval_calls", "count"),
    ("fundmat.dense_eval_points", "count"),
    ("fundmat.dense_eval_s", "s"),
    ("fundmat.phi_calls", "count"),
    ("odesol.curves", "count"),
    ("odesol.batch_evals", "count"),
    ("odesol.batch_points", "count"),
    ("odesol.batch_eval_s", "s"),
    ("odesol.scalar_evals", "count"),
    ("odesol.scalar_eval_s", "s"),
    ("odesol.gbm_kernel_calls", "count"),
    ("odesol.gbm_kernel_s", "s"),
    ("odesol.min_over_s", "s"),
    *((f"intervals.solve_s.{name}", "s") for name in CONFIG_NAMES),
    ("intervals.windows", "count"),
    ("intervals.scan_s", "s"),
    ("intervals.rescans", "count"),
    ("intervals.degenerate_roots", "count"),
    ("intervals.coarse_anchors", "count"),
    ("intervals.coarse_s", "s"),
    ("intervals.predicate_evals", "count"),
    ("intervals.predicate_s", "s"),
    ("intervals.bisections", "count"),
    ("intervals.bisect_predicate_evals", "count"),
    ("intervals.bisect_s", "s"),
    ("intervals.newton_calls", "count"),
    ("intervals.newton_kept_ratio", "ratio"),
    ("intervals.newton_s", "s"),
    ("intervals.finalize_s", "s"),
    ("intervals.boundary_err_max", "abs"),
    ("value.hjb_s", "s"),
    ("value.hjb_points", "count"),
    ("value.evaluate_calls", "count"),
    ("mc.blocks", "count"),
    ("mc.block_s", "s"),
    ("mc.rng_setup_s", "s"),
    ("mc.steps", "count"),
    ("mc.path_steps", "count"),
    ("mc.gbm_step_points", "count"),
    ("mc.payoff_z", "z"),
    ("mc.long_payoff_z", "z"),
    ("mc.hitprob_z", "z"),
    ("cli.parse_s", "s"),
    ("cli.sigma_scaling_s", "s"),
    *((f"span.{name}.self_s", "s") for name in SPAN_NAMES),
    ("share.flow_of_solve", "ratio"),
    ("share.coarse_of_solve", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
)


_UNITS = dict(LAYER_METRICS)


def is_count(name: str) -> bool:
    """Counts and deterministic diagnostics must repeat exactly between passes."""
    return _UNITS[name] in ("count", "z", "abs") or name == "intervals.newton_kept_ratio"


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """Counters, timers and spans for one traced pass; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # key -> [calls, seconds, points]
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []
        self._bisect_depth = 0

    # -- recording -----------------------------------------------------------
    def stat(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0])

    def reset(self) -> None:
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0
        self.spans.clear()
        self._stack.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.stat(key)[0] += n

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def span_self_times(self) -> dict[str, float]:
        """Span duration minus the part covered by its direct children, per name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: 0.0 for name in SPAN_NAMES}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    # -- wrappers ------------------------------------------------------------
    def _timed(self, fn, key, points=None, after=None, span=None):
        stat = self.stat(key)
        clock = time.perf_counter

        if points is None and after is None and span is None:
            def hot(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[0] += 1
                    stat[1] += clock() - t0
            return hot

        def wrapper(*args, **kwargs):
            if points is not None:
                stat[2] += points(args)
            t0 = clock()
            try:
                if span is None:
                    out = fn(*args, **kwargs)
                else:
                    with self.span(span):
                        out = fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += clock() - t0
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, new)

    def wrap(self, owners, attr: str, key: str, **kw) -> None:
        """Wrap ``attr`` in every namespace of ``owners`` under one counter key."""
        for owner in owners:
            self._patch(owner, attr, self._timed(getattr(owner, attr), key, **kw))

    def install(self) -> None:
        P, F, O, I, V, M = problem, fundmat, odesol, intervals, value, mc
        self.wrap([P, cli], "validate", "problem.validate")
        self.wrap([P.PiecewiseExpr], "eval", "problem.expr_eval",
                  points=lambda a: _size(a[1]))
        self.wrap([P.PowerWeightedIntegral], "between", "problem.pwi_between")

        self.wrap([F.PiecewiseFlow], "__init__", "fundmat.flow_build",
                  after=lambda a, _: self.count("fundmat.pieces", len(a[0].pieces)))
        self.wrap([F], "solve_ivp", "fundmat.ivp",
                  after=lambda _, res: self.count("fundmat.ivp_nfev", int(res.nfev)))
        self.wrap([OdeSolution], "__call__", "fundmat.dense_eval",
                  points=lambda a: _size(a[1]))
        self.wrap([F.FundamentalMatrix], "phi", "fundmat.phi")

        self.wrap([O, I], "v_curve", "odesol.curves")
        self.wrap([O, I], "v_boundary", "odesol.curves")
        self.wrap([O.SolutionCurve], "eval_batch", "odesol.batch_eval",
                  points=lambda a: _size(a[1]))
        self.wrap([O.SolutionCurve], "eval", "odesol.scalar_eval")
        batch_fn = O.GbmCurveEngine.batch_fn
        self._patch(O.GbmCurveEngine, "batch_fn",
                    lambda eng, a, d, window: self._timed(
                        batch_fn(eng, a, d, window), "odesol.gbm_kernel"))
        self.wrap([O, I], "min_over", "odesol.min_over")

        self.wrap([I], "_scan_window", "intervals.scan", span="scan")
        self.wrap([I], "_coarse_predicate", "intervals.coarse",
                  points=lambda a: _size(a[1]))
        nonneg = I._nonneg

        def counted_nonneg(*args, **kwargs):
            if self._bisect_depth:
                self.count("intervals.bisect_predicate_evals")
            return nonneg(*args, **kwargs)

        self._patch(I, "_nonneg", self._timed(counted_nonneg, "intervals.predicate"))
        bisect = I._bisect_pred

        def counted_bisect(*args, **kwargs):
            self._bisect_depth += 1
            try:
                return bisect(*args, **kwargs)
            finally:
                self._bisect_depth -= 1

        self._patch(I, "_bisect_pred", self._timed(counted_bisect, "intervals.bisect"))
        self.wrap([I], "_newton_polish_pair", "intervals.newton",
                  after=lambda a, out: self.count(
                      "intervals.newton_kept", int(tuple(out) != (a[1], a[2]))))
        self.wrap([I], "_finalize", "intervals.finalize", span="finalize")

        self.wrap([V], "hjb_residual", "value.hjb", span="hjb",
                  after=lambda _, rep: self.count("value.hjb_points", rep.grid.size))
        self.wrap([V.ValueFunction], "evaluate", "value.evaluate")

        self.wrap([M], "_simulate_block", "mc.block", span="mc_block")
        self.wrap([M], "_path_generators", "mc.rng_setup")
        self.wrap([M._Rule], "hit", "mc.steps", points=lambda a: _size(a[1]))
        self.wrap([M], "step_exact_gbm", "mc.gbm_step", points=lambda a: _size(a[0]))

        self.wrap([cli], "parse_config_dict", "cli.parse")
        self.wrap([cli], "_check_sigma_scaling", "cli.sigma_scaling")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig, own = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------
    def layer_values(self) -> dict[str, float]:
        """Raw per-layer metrics accumulated since the last reset.

        Metrics the benchmark itself supplies (per-config solve times, z
        scores, boundary errors, shares, overhead, fail ratio) are filled in
        by the caller.
        """
        def calls(key):
            return self.stat(key)[0]

        def secs(key):
            return self.stat(key)[1]

        def pts(key):
            return self.stat(key)[2]

        newton = calls("intervals.newton")
        out = {
            "problem.validate_s": secs("problem.validate"),
            "problem.expr_eval_calls": calls("problem.expr_eval"),
            "problem.expr_eval_points": pts("problem.expr_eval"),
            "problem.expr_eval_s": secs("problem.expr_eval"),
            "problem.pwi_between_calls": calls("problem.pwi_between"),
            "problem.pwi_between_s": secs("problem.pwi_between"),
            "fundmat.flow_builds": calls("fundmat.flow_build"),
            "fundmat.flow_build_s": secs("fundmat.flow_build"),
            "fundmat.pieces": calls("fundmat.pieces"),
            "fundmat.ivp_nfev": calls("fundmat.ivp_nfev"),
            "fundmat.dense_eval_calls": calls("fundmat.dense_eval"),
            "fundmat.dense_eval_points": pts("fundmat.dense_eval"),
            "fundmat.dense_eval_s": secs("fundmat.dense_eval"),
            "fundmat.phi_calls": calls("fundmat.phi"),
            "odesol.curves": calls("odesol.curves"),
            "odesol.batch_evals": calls("odesol.batch_eval"),
            "odesol.batch_points": pts("odesol.batch_eval"),
            "odesol.batch_eval_s": secs("odesol.batch_eval"),
            "odesol.scalar_evals": calls("odesol.scalar_eval"),
            "odesol.scalar_eval_s": secs("odesol.scalar_eval"),
            "odesol.gbm_kernel_calls": calls("odesol.gbm_kernel"),
            "odesol.gbm_kernel_s": secs("odesol.gbm_kernel"),
            "odesol.min_over_s": secs("odesol.min_over"),
            "intervals.windows": calls("intervals.scan"),
            "intervals.scan_s": secs("intervals.scan"),
            "intervals.coarse_anchors": pts("intervals.coarse"),
            "intervals.coarse_s": secs("intervals.coarse"),
            "intervals.predicate_evals": calls("intervals.predicate"),
            "intervals.predicate_s": secs("intervals.predicate"),
            "intervals.bisections": calls("intervals.bisect"),
            "intervals.bisect_predicate_evals": calls("intervals.bisect_predicate_evals"),
            "intervals.bisect_s": secs("intervals.bisect"),
            "intervals.newton_calls": newton,
            "intervals.newton_kept_ratio":
                calls("intervals.newton_kept") / newton if newton else 0.0,
            "intervals.newton_s": secs("intervals.newton"),
            "intervals.finalize_s": secs("intervals.finalize"),
            "value.hjb_s": secs("value.hjb"),
            "value.hjb_points": calls("value.hjb_points"),
            "value.evaluate_calls": calls("value.evaluate"),
            "mc.blocks": calls("mc.block"),
            "mc.block_s": secs("mc.block"),
            "mc.rng_setup_s": secs("mc.rng_setup"),
            "mc.steps": calls("mc.steps"),
            "mc.path_steps": pts("mc.steps"),
            "mc.gbm_step_points": pts("mc.gbm_step"),
            "cli.parse_s": secs("cli.parse"),
            "cli.sigma_scaling_s": secs("cli.sigma_scaling"),
        }
        for name, t in self.span_self_times().items():
            out[f"span.{name}.self_s"] = t
        return out
