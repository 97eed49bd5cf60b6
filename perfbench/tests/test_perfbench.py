"""Self-tests of the benchmark harness: span self-time arithmetic, the
before/after verdict and design-attempt classification."""

import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import refclock  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ltvadapt import maxdet, synthesis  # noqa: E402
from ltvadapt.window import DataWindow  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tr.open("hybrid.run")
    a = tr.open("synthesis.synthesize")
    leaf = tr.open("linalg.sym_eig")
    tr.close(leaf)
    tr.close(a)
    b = tr.open("synthesis.synthesize")
    tr.close(b)
    tr.close(root)
    assert tracing.self_times(tr.spans) == [3, 2, 1, 4]
    # a design attempt opens its own operation; its children inherit it
    assert [s.op for s in tr.spans] == [root, a, a, b]
    assert [s.parent for s in tr.spans] == [-1, root, a, root]


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("p", 0.0, 10.0, -1, -1),
             tracing.Span("c", 1.0, 5.0, 0, -1),
             tracing.Span("c", 3.0, 7.0, 0, -1),
             tracing.Span("c", 8.0, 12.0, 0, -1)]  # clipped to the parent
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 6 - 2)


def test_layer_metrics_split_phases():
    def solve(t0, t1, sub, status, iters):
        # solve_maxdet [t0, t1] around phase I [t0 + 1, t0 + 1 + sub]
        return [tracing.Span("maxdet.solve_maxdet", t0, t1, -1, -1,
                             {"status": "Optimal", "iterations": iters[1]}),
                tracing.Span("maxdet.solve_feasibility", t0 + 1,
                             t0 + 1 + sub, None, -1,
                             {"status": status, "iterations": iters[0]})]

    spans = solve(0.0, 10.0, 4.0, "Feasible", (30, 80))
    spans += solve(20.0, 26.0, 5.0, "MaxIter", (500, 500))
    spans[1].parent, spans[3].parent = 0, 2
    m = tracing.layer_metrics(spans)
    assert m["maxdet.phase1.calls.feasible"] == 1
    assert m["maxdet.phase1.calls.maxiter"] == 1
    assert m["maxdet.phase1.steps.maxiter"] == 500
    assert m["maxdet.phase2.steps"] == 50
    assert m["maxdet.phase2.self_s"] == pytest.approx(6.0 + 1.0)
    assert m["maxdet.phase1.ms_per_step"] == pytest.approx(1e3 * 9.0 / 530)
    assert m["maxdet.decided_ratio"] == 0.5
    assert m["synthesis.verify_property.us_per_sample"] is None


def test_reference_clock_scales_by_kernel_speed_and_skips_kernel_time():
    nominal = refclock.NOMINAL_KERNEL_S
    kernel_times = iter([2 * nominal, nominal])  # half speed, then full
    clock = refclock.RefClock(
        wall=FakeClock([0.0, 0.01, 0.1, 0.2, 0.21, 0.25]),
        kernel=lambda: next(kernel_times))
    assert clock() == pytest.approx(0.005)           # 0.01 s at half speed
    clock.sample()                                   # from 0.1 to 0.2
    # the 0.09 s up to the sample get the mean rate of its two ends, the
    # 0.1 s the sample took are not counted, the rest runs at full speed
    assert clock() == pytest.approx(0.005 + 0.09 * 0.75 + 0.01)
    assert clock() == pytest.approx(0.005 + 0.09 * 0.75 + 0.05)


def test_reference_clock_samples_on_a_timer():
    with refclock.RefClock() as clock:
        t0 = clock()
        end = time.perf_counter() + 4 * refclock.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
        assert clock() > t0
        assert len(clock._samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_verdicts():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8,
              100.1]
    faster = [v * 0.7 for v in parent]
    assert stats.verdict(parent, faster, "lower", 0.1)[0] == stats.IMPROVED
    assert stats.verdict(parent, faster, "lower", 0.1)[1:] == (10, 0)
    same = parent[1:] + parent[:1]
    assert stats.verdict(parent, same, "lower", 0.1)[0] == stats.NO_WORSE
    slower = [v * 1.3 for v in parent]
    assert stats.verdict(parent, slower, "lower", 0.1)[0] == stats.WORSE
    # higher-better metrics mirror the rule
    assert stats.verdict(parent, slower, "higher", 0.1)[0] == stats.IMPROVED
    # a parent spread wider than the bound leaves the answer open ...
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    shifted = [v * 1.05 for v in noisy]
    assert stats.verdict(noisy, shifted, "lower", 0.1)[0] == stats.UNRESOLVED
    # ... unless every run of the change beats every run of the parent
    below = [v * 0.2 for v in noisy]
    assert stats.verdict(noisy, below, "lower", 0.1)[0] in (
        stats.IMPROVED, stats.NO_WORSE)
    # winning 8 of 10 pairs is not a gain, whatever the medians say
    mixed = [v * 0.7 for v in parent[:8]] + [v * 1.01 for v in parent[8:]]
    assert stats.verdict(parent, mixed, "lower", 0.5)[0] == stats.NO_WORSE


def test_tail_percentile_needs_ten_beyond():
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(131) == 90
    assert stats.tail_percentile(68) == 80
    assert stats.tail_percentile(20) is None
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def _window():
    rng = np.random.default_rng(0)
    return DataWindow(kappa=4, Xhat=rng.standard_normal((2, 4)),
                      X=rng.standard_normal((2, 4)),
                      U=rng.standard_normal((2, 4)))


@pytest.mark.parametrize("status", ["Optimal", "Infeasible", "NoSolve"])
def test_decisions_are_not_failures(status):
    assert not workloads.attempt_failed(status)


@pytest.mark.parametrize("outcome,expected", [
    ("MaxIter", "MaxIter"),
    ("Infeasible", "Infeasible"),
    (maxdet.SolverBreakdown("singular"), "Exception:SolverBreakdown"),
])
def test_attempt_status_classification(monkeypatch, outcome, expected):
    def fake_solve(problem, opts=None, x0=None):
        if isinstance(outcome, Exception):
            raise outcome
        return maxdet.SdpSolution(x=np.zeros(problem.num_vars),
                                  status=outcome, min_margins=np.zeros(1))

    monkeypatch.setattr(maxdet, "solve_maxdet", fake_solve)
    log = workloads.AttemptLog()
    log.scenario = "synthetic"
    with log.patch():
        assert synthesis.synthesize(_window()) is None
    [(name, seconds, status)] = log.attempts
    assert (name, status) == ("synthetic", expected)
    assert seconds >= 0.0
    assert workloads.attempt_failed(status) == (expected != "Infeasible")
    # the patch is undone on exit
    assert maxdet.solve_maxdet is fake_solve


def test_traced_pass_matches_untraced_and_restores_the_package():
    from ltvadapt import hybrid, linalg
    inp = workloads.prepare(workloads.EVENT, 0)
    inp.runs = [r for r in inp.runs if r[0].name == "switching-fixed-mild"]
    before = {(o, a): vars(o)[a] for o, a, _, _ in tracing.targets()}
    plain = workloads.run_pass(inp)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert linalg.sym_eig is not before[(linalg, "sym_eig")]
        traced = workloads.run_pass(inp)
    assert {(o, a): vars(o)[a] for o, a, _, _ in tracing.targets()} == before
    assert workloads.outcome(inp, traced) == workloads.outcome(inp, plain)
    assert not workloads.check(inp, traced).problems
    names = {s.name for s in tracer.spans}
    assert {"hybrid.run", "synthesis.synthesize", "maxdet.solve_feasibility",
            "maxdet.check_point", "window.push", "plants.eval"} <= names
    assert all(s.end >= s.start for s in tracer.spans)
    m = tracing.layer_metrics(tracer.spans)
    assert m["hybrid.run.calls"] == 1
    assert m["hybrid.steps"] == hybrid.run(
        inp.runs[0][1], inp.runs[0][2]).records[-1].k
    assert m["synthesis.synthesize.calls"] == len(plain.attempts) == 1


def test_workloads_run_the_canonical_scenario_seeds_in_seeded_order():
    from ltvadapt import verification
    canon = {name: cfg.seed
             for name, _, cfg in verification.canonical_scenarios()}
    orders = []
    for n in (0, 7):
        event = workloads.scenarios(workloads.EVENT, n)
        assert {s.name: s.seed for s in event} == {
            k: v for k, v in canon.items() if not k.startswith("time")}
        timed = {s.name: s.seed
                 for s in workloads.scenarios(workloads.SCHEDULED, n)}
        assert len(timed) == 21
        assert {k: v for k, v in canon.items() if k.startswith("time")
                }.items() <= timed.items()
        certify = workloads.scenarios(workloads.CERTIFY, n)
        assert {s.name for s in certify} == set(timed) | {"vanishing"}
        orders.append([s.name for s in event])
    assert orders[0] != orders[1]
    with pytest.raises(ValueError):
        workloads.scenarios(workloads.EVENT, -1)


def test_instrument_skips_functions_the_package_no_longer_has(monkeypatch):
    from ltvadapt import linalg
    monkeypatch.delattr(linalg, "spectral_norm")
    with tracing.instrument(tracing.Tracer()):
        assert not hasattr(linalg, "spectral_norm")
    assert tracing.layer_metrics([])["linalg.spectral_norm.calls"] == 0
