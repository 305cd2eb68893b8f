"""Tests of the benchmark's correctness gate, tracer and contract file.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import workloads  # noqa: E402
from stopflow import cli, intervals, odesol, problem, value  # noqa: E402
from tracer import LAYER_METRICS, Tracer, is_count  # noqa: E402


def _solve(name: str, mode: str = "auto"):
    with open(ROOT / "configs" / f"{name}.json") as fh:
        doc = json.load(fh)
    doc["solver"] = {"mode": mode}
    spec, _, mode = cli.parse_config_dict(doc)
    prob = problem.validate(spec, mode=mode)
    return prob, intervals.maximal_intervals(prob)


@pytest.fixture(scope="module")
def solved():
    return {name: _solve(name) for name in gate.REFERENCES}


def _shift(mi, da=0.0, db=0.0):
    return dataclasses.replace(mi, a=mi.a + da, b=mi.b + db)


class TestGate:
    def test_shipped_solutions_pass(self, solved):
        for name, (prob, res) in solved.items():
            fails, err = gate.boundary_failures(name, prob.mode, res)
            assert fails == [] and err < 1e-6
            assert gate.certificate_failures(name, prob, res) == []
            vf = value.assemble(prob, res)
            assert gate.hjb_failures(name, prob, vf, value.hjb_residual(vf)) == []

    def test_boundary_off_by_more_than_tolerance_fails(self, solved):
        prob, res = solved["ex1_twosided"]
        moved = [_shift(res[0], db=1e-5)]
        assert gate.boundary_failures("ex1_twosided", "closed_form", moved)[0]
        # the integrator tolerance is 1e-3, against the reference ...
        assert gate.boundary_failures("ex1_twosided", "numerical", moved)[0] == []
        # ... and against the closed-form boundaries
        closed = [(res[0].a, res[0].b + 2e-3)]
        assert gate.boundary_failures("ex1_twosided", "numerical", res, closed)[0]

    def test_ex2_left_is_pinned_at_1e_4(self, solved):
        _, res = solved["ex2_left"]
        assert gate.boundary_failures("ex2_left", "closed_form", [_shift(res[0], 5e-5)])[0] == []
        assert gate.boundary_failures("ex2_left", "closed_form", [_shift(res[0], 2e-4)])[0]

    def test_wrong_structure_fails(self, solved):
        _, res = solved["ex2_right"]
        assert gate.boundary_failures("ex2_right", "closed_form", res[:1])[0]
        _, one = solved["ex1_onesided"]
        as_interior = [dataclasses.replace(one[0], a_kind=intervals.Kind.INTERIOR)]
        assert gate.boundary_failures("ex1_onesided", "closed_form", as_interior)[0]
        _, res2 = solved["ex1_twosided"]
        assert gate.boundary_failures("ex1_twosided", "numerical", res2, [])[0]

    def test_negative_certificate_fails(self, solved):
        prob, res = solved["ex1_twosided"]
        cert = dataclasses.replace(res[0].certificate, global_min=-1e-3)
        bad = [dataclasses.replace(res[0], certificate=cert)]
        assert gate.certificate_failures("ex1_twosided", prob, bad)

    def test_failing_hjb_report_fails(self, solved):
        prob, res = solved["ex1_twosided"]
        vf = value.assemble(prob, res)
        rep = dataclasses.replace(value.hjb_residual(vf), max_violation_continue=1e-3)
        assert gate.hjb_failures("ex1_twosided", prob, vf, rep)

    def test_verify_exit_code(self):
        assert gate.exit_code_failures("x", 0) == []
        assert gate.exit_code_failures("x", 1)

    def test_z_gate_confirms_outliers(self):
        def never():
            raise AssertionError("an inlier needs no confirmation")

        assert gate.mc_failures("m", 2.9, never) == []
        assert gate.mc_failures("m", 3.5, lambda: 0.4) == []
        assert gate.mc_failures("m", 3.5, lambda: -3.5) == []
        assert gate.mc_failures("m", 3.5, lambda: 3.2)
        assert gate.mc_failures("m", -4.0, lambda: -3.1)
        assert gate.z_score(1.0, 0.0, 1.0) == 0.0
        assert math.isinf(gate.z_score(1.0, 0.0, 2.0))


TINY = workloads.Workload("auto", ("ex1_twosided", "ex2_right"), 1, 1, 256, 128, 256, 1.0)


@pytest.fixture()
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    return lambda: workloads.Bench(ROOT, "tiny", seed=11)


class TestTracer:
    def test_install_is_undone(self):
        before = (intervals.v_curve, odesol.v_curve, problem.PiecewiseExpr.eval,
                  cli.validate, intervals._nonneg)
        tracer = Tracer()
        tracer.install()
        assert intervals.v_curve is not before[0] and cli.validate is not before[3]
        tracer.uninstall()
        assert (intervals.v_curve, odesol.v_curve, problem.PiecewiseExpr.eval,
                cli.validate, intervals._nonneg) == before

    def test_counts_repeat_across_runs(self, tiny):
        layers = []
        for _ in range(2):
            bench, tracer = tiny(), Tracer()
            tracer.install()
            try:
                p = bench.run_pass(0, tracer)
            finally:
                tracer.uninstall()
            assert bench.failed == 0, bench.failures
            p.layers.update(tracer.layer_values())
            layers.append(p.layers)
        counts = [m for m, _ in LAYER_METRICS if is_count(m) and m in layers[0]]
        assert counts and all(layers[0][m] == layers[1][m] for m in counts)
        assert layers[0]["odesol.curves"] > 0 and layers[0]["mc.steps"] > 0
        assert layers[0]["fundmat.flow_builds"] == 0

    def test_monte_carlo_inputs_follow_the_seed(self, tiny):
        first, again = tiny(), tiny()
        p0, p0_again = first.run_pass(0), again.run_pass(0)
        assert p0.estimates == p0_again.estimates
        assert first.run_pass(1).estimates != p0.estimates
        assert first.failed == again.failed == 0


def test_contract_file_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed_form",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and '"metrics"' not in out.stdout
