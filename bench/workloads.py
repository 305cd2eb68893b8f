"""Workload definitions and the timed pass loop of the benchmark.

A pass runs the user-visible pipeline once on the workload's configs:
validate fresh handles, solve (``maximal_intervals``), check (``assemble``
plus ``hjb_residual``), ``verify`` through ``cli.run`` in-process, and the
three Monte Carlo operations.  Every pass of a run repeats identical work
(the seed fixes the config order and the Monte Carlo seeds), so its
timings are repeated samples and its traced counts must match exactly.
See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from stopflow import cli, intervals, mc, problem, value
from stopflow.errors import DegenerateRoot, ScanTooCoarse, StopflowError

import gate
from tracer import CONFIG_NAMES, LAYER_METRICS, Tracer, is_count

X0 = 1.5                     # acceptance criterion 5 starting state
HJB_GRID = 4096
CHECK_REPS = 3               # the check step is short; repeat it for a steadier median
CONFIRM_SEED_OFFSET = 1_000_003
SETUP_REPS = 9
DETERMINISM_PATHS = 16384    # two blocks of mc._BLOCK_PATHS

# criterion-6 problem: roots (-2, 1), sigma 1, payoff +1 on [1, 2]
HITPROB_DOC = {
    "interval": {"m": 0, "M": "inf"},
    "gbm": {"d1": -2, "d2": 1, "sigma": 1.0},
    "coefficients": {"pi": [
        {"from": 0, "to": 1.0, "terms": [{"c": -1, "p": 0}]},
        {"from": 1.0, "to": 2.0, "terms": [{"c": 1, "p": 0}]},
        {"from": 2.0, "to": "inf", "terms": [{"c": -1, "p": 0}]},
    ]},
}

E2E_METRICS = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("check_s", "s"),
    ("verify_cli_s", "s"),
    ("mc_paths_per_s", "1/s"),
    ("mc_long_paths_per_s", "1/s"),
    ("hitprob_paths_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    mode: str                   # solver mode forced on every config
    configs: tuple[str, ...]    # shipped configs solved, checked and verified
    solver_reps: int            # solve/check/verify repetitions per pass
    mc_reps: int                # Monte Carlo repetitions per pass, each at its own seed
    payoff_paths: int           # simulate_payoff on ex1_twosided
    long_paths: int             # simulate_payoff on ex2_right
    hit_paths: int              # estimate_hit_prob on the criterion-6 problem
    pass_s: float               # nominal pass time on a 2-core x86-64 container

    def passes(self, seconds: float) -> int:
        """Passes that fill ``seconds`` at the nominal pass time.

        The count depends on the arguments only, never on measured time, so
        a run does the same work, reaches the same peak memory and reports
        the same counts however fast the machine happens to be.
        """
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {
    "closed_form": Workload("auto", CONFIG_NAMES, 2, 1, 16384, 16384, 16384, 14.0),
    "numerical": Workload("numerical", CONFIG_NAMES, 1, 2, 16384, 16384, 16384, 46.0),
    "montecarlo": Workload("auto", ("ex1_twosided", "ex2_right"), 4, 1, 32768, 16384, 16384,
                           13.0),
}
# Cheap solver blocks repeat within a pass so that their medians rest on
# several samples next to the long Monte Carlo operations.  The long-path
# operation needs two blocks even on the solver workloads: its time follows
# the longest-lived path of each block, which varies with the seed, and one
# block of 4096 paths spread its throughput by 20% across seeds.

# Per-layer metrics the tracer must see move, and exact predictions.
_EVERY_WORKLOAD = (
    "problem.validate_s", "problem.expr_eval_calls", "problem.expr_eval_points",
    "problem.expr_eval_s", "fundmat.phi_calls", "odesol.curves", "odesol.batch_evals",
    "odesol.batch_points", "odesol.batch_eval_s", "odesol.scalar_evals",
    "odesol.scalar_eval_s", "odesol.min_over_s", "intervals.windows", "intervals.scan_s",
    "intervals.coarse_anchors", "intervals.coarse_s", "intervals.predicate_evals",
    "intervals.predicate_s", "intervals.bisections", "intervals.bisect_predicate_evals",
    "intervals.bisect_s", "intervals.newton_calls", "intervals.newton_s",
    "intervals.finalize_s", "value.hjb_s", "value.hjb_points", "value.evaluate_calls",
    "mc.blocks", "mc.block_s", "mc.rng_setup_s", "mc.steps", "mc.path_steps",
    "mc.gbm_step_points", "cli.parse_s",
    *(f"span.{name}.self_s" for name in ("solve", "scan", "finalize", "hjb", "mc_block")),
)
_CLOSED_LAYERS = ("problem.pwi_between_calls", "problem.pwi_between_s",
                  "odesol.gbm_kernel_calls", "odesol.gbm_kernel_s", "cli.sigma_scaling_s")
_FLOW_LAYERS = ("fundmat.flow_builds", "fundmat.flow_build_s", "fundmat.pieces",
                "fundmat.ivp_nfev", "fundmat.dense_eval_calls",
                "fundmat.dense_eval_points", "fundmat.dense_eval_s")


def expected_nonzero(name: str) -> tuple[str, ...]:
    wl = WORKLOADS[name]
    solves = tuple(f"intervals.solve_s.{c}" for c in wl.configs)
    engine = _FLOW_LAYERS if wl.mode == "numerical" else _CLOSED_LAYERS
    return _EVERY_WORKLOAD + engine + solves


def expected_zero(name: str) -> tuple[str, ...]:
    """The engine a workload does not use must stay idle."""
    return _CLOSED_LAYERS if WORKLOADS[name].mode == "numerical" else _FLOW_LAYERS


def median(xs) -> float:
    """Median of the samples; 0.0 when an operation never completed (the run failed)."""
    return statistics.median(xs) if xs else 0.0


@dataclass
class Pass:
    timings: dict[str, list[float]]   # metric -> samples taken in this pass
    layers: dict[str, float]
    estimates: dict[str, list]        # Monte Carlo results, fixed by the seed


class Bench:
    """One benchmark run of a workload: inputs from the seed, gate, pass loop."""

    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.order = random.Random(seed).sample(self.wl.configs, len(self.wl.configs))
        self.docs = {c: self._doc(c) for c in self.order}
        spec, _, mode = cli.parse_config_dict(HITPROB_DOC)
        self.hit_problem = problem.validate(spec, mode=mode)
        self.closed = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _doc(self, config: str) -> dict:
        with open(self.root / "configs" / f"{config}.json") as fh:
            doc = json.load(fh)
        if self.wl.mode == "numerical":
            doc.setdefault("solver", {})["mode"] = "numerical"
        return doc

    def record(self, fails: list[str]) -> None:
        """Count one operation; it failed when it produced any failure message."""
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.extend(fails)

    # -- inputs that are not timed -----------------------------------------
    def setup_times(self) -> list[float]:
        """Fresh-process time from ``import stopflow`` to parsed, validated configs."""
        docs = json.dumps([self.docs[c] for c in self.order] + [HITPROB_DOC])
        code = (
            "import json, sys, time\n"
            "docs = json.loads(sys.stdin.read())\n"
            "t0 = time.perf_counter()\n"
            "from stopflow import cli, problem\n"
            "for doc in docs:\n"
            "    spec, _, mode = cli.parse_config_dict(doc)\n"
            "    problem.validate(spec, mode=mode)\n"
            "print(repr(time.perf_counter() - t0))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        times = []
        for _ in range(SETUP_REPS):
            out = subprocess.run([sys.executable, "-c", code], input=docs, env=env,
                                 cwd=self.root, capture_output=True, text=True,
                                 timeout=120, check=True)
            times.append(float(out.stdout.split()[-1]))
        return times

    def closed_form_boundaries(self) -> None:
        """Closed-form (a, b) pairs the numerical boundaries must match within 1e-3."""
        self.closed = {}
        for c in self.order:
            doc = dict(self.docs[c], solver={"mode": "closed_form"})
            spec, _, mode = cli.parse_config_dict(doc)
            res = intervals.maximal_intervals(problem.validate(spec, mode=mode))
            self.closed[c] = [(mi.a, mi.b) for mi in res]

    # -- one pass ------------------------------------------------------------
    def mc_seed(self, k: int) -> int:
        """Seed of the k-th Monte Carlo repetition of the run."""
        return self.seed * 1000 + k

    def run_pass(self, index: int, tracer: Tracer | None = None) -> Pass:
        # drop the previous pass's reference cycles so peak RSS does not
        # depend on when the collector last ran
        gc.collect()
        t: dict[str, list[float]] = {"solve_s": [], "check_s": [], "verify_cli_s": []}
        lay: dict[str, float] = {f"intervals.solve_s.{c}": 0.0 for c in CONFIG_NAMES}
        lay["intervals.boundary_err_max"] = 0.0
        flow = {"solve": 0.0, "fundmat.dense_eval": 0.0, "fundmat.flow_build": 0.0,
                "intervals.coarse": 0.0}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(self.wl.solver_reps):
                probs, vfs = self._solver_block(tracer, t, lay, flow)
            estimates, zs = self._monte_carlo(index, probs, vfs, t)

        reps = self.wl.solver_reps
        for c in CONFIG_NAMES:
            lay[f"intervals.solve_s.{c}"] /= reps
        if tracer:
            lay["share.flow_of_solve"] = (
                flow["fundmat.dense_eval"] + flow["fundmat.flow_build"]) / flow["solve"]
            lay["share.coarse_of_solve"] = flow["intervals.coarse"] / flow["solve"]
        lay["intervals.rescans"] = sum(issubclass(w.category, ScanTooCoarse) for w in caught)
        lay["intervals.degenerate_roots"] = sum(
            issubclass(w.category, DegenerateRoot) for w in caught)
        lay.update(zs)
        lay["pass_timed_s"] = sum(sum(t[k]) for k in ("solve_s", "check_s", "verify_cli_s",
                                                      "mc_s"))
        return Pass(t, lay, estimates)

    def _solver_block(self, tracer, t, lay, flow) -> tuple[dict, dict]:
        """Validate fresh handles, solve and verify every config once, check it CHECK_REPS times."""
        clock = time.perf_counter
        span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
        probs = {}
        for c in self.order:
            spec, _, mode = cli.parse_config_dict(self.docs[c])
            probs[c] = problem.validate(spec, mode=mode)

        before = {k: tracer.stat(k)[1] for k in flow if k != "solve"} if tracer else {}
        sols = {}
        solve_s = 0.0
        for c in self.order:
            prob = probs[c]
            fails = [] if not prob._cache else [f"{c}: handle cache not empty before solve"]
            t0 = clock()
            try:
                with span("solve"):
                    res = intervals.maximal_intervals(prob)
            except StopflowError as exc:
                res = None
                fails.append(f"{c}: solve raised {type(exc).__name__}: {exc}")
            dt = clock() - t0
            solve_s += dt
            lay[f"intervals.solve_s.{c}"] += dt
            if res is not None:
                closed = self.closed[c] if self.closed else None
                bfails, err = gate.boundary_failures(c, prob.mode, res, closed)
                lay["intervals.boundary_err_max"] = max(lay["intervals.boundary_err_max"], err)
                fails += bfails + gate.certificate_failures(c, prob, res)
                sols[c] = res
            self.record(fails)
        t["solve_s"].append(solve_s)
        flow["solve"] += solve_s
        for k in before:
            flow[k] += tracer.stat(k)[1] - before[k]

        vfs = {}
        for _ in range(CHECK_REPS):
            check_s = 0.0
            for c in self.order:
                if c not in sols:
                    continue
                t0 = clock()
                try:
                    vf = value.assemble(probs[c], sols[c])
                    rep = value.hjb_residual(vf, n_grid=HJB_GRID)
                    fails = gate.hjb_failures(c, probs[c], vf, rep)
                    vfs[c] = vf
                except StopflowError as exc:
                    fails = [f"{c}: check raised {type(exc).__name__}: {exc}"]
                check_s += clock() - t0
                self.record(fails)
            t["check_s"].append(check_s)

        verify_s = 0.0
        for c in self.order:
            argv = ["verify", str(self.root / "configs" / f"{c}.json")]
            if self.wl.mode == "numerical":
                argv += ["--set", "solver.mode=numerical"]
            sink = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.run(argv)
            verify_s += clock() - t0
            self.record(gate.exit_code_failures(c, rc))
        t["verify_cli_s"].append(verify_s)
        return probs, vfs

    def _monte_carlo(self, index, probs, vfs, t) -> tuple[dict, dict]:
        """The three Monte Carlo operations, ``mc_reps`` times each, timed and z-gated.

        Each operation maps a seed to (estimate, z score, extra failures).
        Every repetition of the run draws a new seed: the time of the
        long-path operation follows the longest-lived path of each block,
        so it varies with the seed, and its median needs several seeds.
        """
        wl = self.wl
        ops = []
        for metric, zkey, c, n in (
                ("mc_paths_per_s", "mc.payoff_z", "ex1_twosided", wl.payoff_paths),
                ("mc_long_paths_per_s", "mc.long_payoff_z", "ex2_right", wl.long_paths)):
            if c not in vfs:
                self.record([f"{metric}: no value function for {c}"])
                continue
            vf = vfs[c]

            def payoff(seed, prob=probs[c], rule=vf.stopping_region(),
                       v0=vf.evaluate(X0)[0], n=n, metric=metric):
                cfg = mc.PathConfig(dt=1e-3, horizon=200.0, n_paths=n, seed=seed,
                                    scheme="exact_gbm")
                e = mc.simulate_payoff(prob, rule, X0, cfg)
                fails = ([f"{metric}: {e.truncated_fraction:.2g} of paths truncated"]
                         if e.truncated_fraction >= 1e-3 else [])
                return ((e.mean, e.std_error, e.truncated_fraction),
                        gate.z_score(e.mean, e.std_error, v0), fails)

            ops.append((metric, zkey, n, payoff))

        def hit(seed):
            cfg = mc.PathConfig(dt=1e-4, horizon=100.0, n_paths=wl.hit_paths, seed=seed)
            freq, se = mc.estimate_hit_prob(self.hit_problem, 1.0, 4.0, 2.0, cfg)
            return (freq, se), gate.z_score(freq, se, gate.HIT_PROB), []

        ops.append(("hitprob_paths_per_s", "mc.hitprob_z", wl.hit_paths, hit))

        estimates: dict[str, list] = {metric: [] for metric, _, _, _ in ops}
        zs: dict[str, float] = {}
        t["mc_s"] = []
        for metric in ("mc_paths_per_s", "mc_long_paths_per_s", "hitprob_paths_per_s"):
            t[metric] = []
        for rep in range(wl.mc_reps):
            seed = self.mc_seed(index * wl.mc_reps + rep)
            for metric, zkey, n, op in ops:
                try:
                    t0 = time.perf_counter()
                    est, z, fails = op(seed)
                    dt = time.perf_counter() - t0
                except StopflowError as exc:
                    self.record([f"{metric}: {type(exc).__name__}: {exc}"])
                    continue
                t[metric].append(n / dt)
                t["mc_s"].append(dt)
                estimates[metric].append(est)
                zs.setdefault(zkey, z)
                self.record(fails + gate.mc_failures(
                    metric, z, lambda op=op, seed=seed: op(seed + CONFIRM_SEED_OFFSET)[1]))
        for zkey in ("mc.payoff_z", "mc.long_payoff_z", "mc.hitprob_z"):
            zs.setdefault(zkey, 0.0)
        return estimates, zs

    def thread_determinism(self, probs_vf) -> None:
        """Two-block simulate_payoff: identical mean and SE with 1 and 2 workers."""
        prob, vf = probs_vf
        cfg = mc.PathConfig(dt=1e-3, horizon=200.0, n_paths=DETERMINISM_PATHS,
                            seed=self.mc_seed(0), scheme="exact_gbm")
        out = []
        for threads in ("1", "2"):
            os.environ["STOPFLOW_THREADS"] = threads
            try:
                est = mc.simulate_payoff(prob, vf.stopping_region(), X0, cfg)
            finally:
                os.environ["STOPFLOW_THREADS"] = "1"
            out.append((est.mean, est.std_error))
        self.record([] if out[0] == out[1] else
                    [f"STOPFLOW_THREADS=1 gives {out[0]}, =2 gives {out[1]}"])


def _solved_twosided(bench: Bench):
    spec, _, mode = cli.parse_config_dict(bench.docs["ex1_twosided"])
    prob = problem.validate(spec, mode=mode)
    return prob, value.solve(prob)


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result line plus ``_``-prefixed run facts."""
    bench = Bench(root, name, seed)
    setup = [] if trace else bench.setup_times()
    if bench.wl.mode == "numerical":
        bench.closed_form_boundaries()

    reference = bench.run_pass(0) if trace else None   # untraced, for the overhead
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    if tracer:
        tracer.install()
    try:
        for index in range(bench.wl.passes(seconds)):
            if tracer:
                tracer.reset()
            p = bench.run_pass(index, tracer)
            if tracer:
                p.layers.update(tracer.layer_values())
            passes.append(p)
    finally:
        if tracer:
            tracer.uninstall()

    if name == "montecarlo":
        bench.thread_determinism(_solved_twosided(bench))

    if trace:
        metrics = _layer_metrics(bench, passes, reference)
        samples = {"per_layer": len(passes)}
    else:
        samples = {m: [x for p in passes for x in p.timings[m]] for m, _ in E2E_METRICS[1:-1]}
        samples["setup_s"] = setup
        values = {m: median(samples[m]) for m, _ in E2E_METRICS[:-1]}
        values["peak_rss_mb"] = _peak_rss_mb()
        metrics = {m: {"value": values[m], "unit": u} for m, u in E2E_METRICS}
        samples = {m: len(v) for m, v in samples.items()}
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "_samples": samples,
        "_failures": bench.failures,
    }


def _layer_metrics(bench: Bench, passes: list[Pass], reference: Pass) -> dict:
    """Counts of the first traced pass, medians of times, overhead against the
    untraced pass that did the same work."""
    values = {}
    for m, _ in LAYER_METRICS:
        if m in passes[0].layers:
            vals = [p.layers[m] for p in passes]
            values[m] = vals[0] if is_count(m) else median(vals)
    untraced = reference.layers["pass_timed_s"]
    values["trace.overhead_s"] = passes[0].layers["pass_timed_s"] - untraced
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / untraced
    bench.record([f"per-layer metric {m} is 0 on {bench.name}"
                  for m in expected_nonzero(bench.name) if not values[m] > 0])
    bench.record([f"per-layer metric {m} is {values[m]} on {bench.name}, predicted 0"
                  for m in expected_zero(bench.name) if values[m] != 0])
    values["fail_ratio"] = bench.failed / bench.attempted
    return {m: {"value": values[m], "unit": u} for m, u in LAYER_METRICS}


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
