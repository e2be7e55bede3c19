"""Each output check passes on real program output and fires on a corrupted copy.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

import checks
from repro.adaptive import planner
from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.isa.compiler import compile_network
from repro.nn.zoo import build
from repro.perf.cache import schedule_cache
from repro.sim.machine import Machine

CYCLE_S = CONFIG_16_16.cycles_to_seconds(1)


def _with_layer(run, index, **changes):
    """A copy of ``run`` whose layer ``index`` has ``changes`` applied."""
    layers = list(run.layers)
    layers[index] = dataclasses.replace(layers[index], **changes)
    return dataclasses.replace(run, layers=layers)


def _first_conv(net):
    return checks._conv_layers(net)[0][0]


# -- design sweep ----------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    nets = {name: build(name) for name in ("alexnet", "nin")}
    configs = [CONFIG_16_16, AcceleratorConfig(tin=32, tout=8, dram_words_per_cycle=2.0)]
    runs = {
        (ci, name, policy): planner.plan_network(net, config, policy, include_non_conv=True)
        for ci, config in enumerate(configs)
        for name, net in nets.items()
        for policy in planner.POLICY_NAMES
    }
    return nets, configs, runs


def test_sweep_checks_pass_on_program_output(sweep):
    nets, configs, runs = sweep
    assert checks.check_sweep_schemes(runs, nets, configs) == set()
    assert checks.check_sweep_oracle(runs, nets) == set()
    assert checks.check_sweep_ideal(runs, nets, configs) == set()


def test_swapped_scheme_choice_fails(sweep):
    nets, configs, runs = sweep
    key = (0, "alexnet", "adaptive-2")
    i = _first_conv(nets["alexnet"])
    wrong = "intra" if runs[key].layers[i].scheme != "intra" else "partition"
    bad = dict(runs)
    bad[key] = _with_layer(runs[key], i, scheme=wrong)
    assert checks.check_sweep_schemes(bad, nets, configs) == {key + (i,)}


def test_oracle_slower_than_a_fixed_scheme_fails(sweep):
    nets, _, runs = sweep
    key = (1, "nin", "oracle")
    i = _first_conv(nets["nin"])
    bad = dict(runs)
    bad[key] = _with_layer(runs[key], i, operations=runs[key].layers[i].operations * 10)
    assert checks.check_sweep_oracle(bad, nets) == {key + (i,)}


def test_ideal_off_by_one_cycle_fails(sweep):
    nets, configs, runs = sweep
    key = (0, "nin", "ideal")
    i = _first_conv(nets["nin"])
    bad = dict(runs)
    bad[key] = _with_layer(runs[key], i, operations=runs[key].layers[i].operations + 1)
    assert checks.check_sweep_ideal(bad, nets, configs) == {key + (i,)}


def test_cached_and_uncached_plans_agree(sweep):
    nets, configs, runs = sweep
    key = (1, "alexnet", "oracle")
    schedule_cache.configure(enabled=False)
    try:
        uncached = planner.plan_network(nets["alexnet"], configs[1], "oracle", include_non_conv=True)
    finally:
        schedule_cache.configure(enabled=True)
    assert checks.check_sweep_same(runs, {key: uncached}) == set()
    i = _first_conv(nets["alexnet"])
    drifted = _with_layer(uncached, i, dram_words=uncached.layers[i].dram_words + 1)
    assert checks.check_sweep_same(runs, {key: drifted}) == {key + (i,)}


def test_machine_mismatch_fails(sweep):
    nets, configs, _ = sweep
    net, config = nets["alexnet"], configs[0]
    conv_run = planner.plan_network(net, config, "adaptive-2")
    result = Machine(config).execute(compile_network(net, config, "adaptive-2"))
    key = (0, "alexnet", "adaptive-2")
    assert checks.check_machine(key, conv_run, result, net) == set()
    wrong = dataclasses.replace(result, compute_cycles=result.compute_cycles + 1)
    failed = checks.check_machine(key, conv_run, wrong, net)
    assert failed == {key + (i,) for i, _ in checks._conv_layers(net)}


# -- serving ---------------------------------------------------------------


@pytest.fixture(scope="module")
def served():
    from repro.serve import BatchPolicy, QueuePolicy, ServingEngine
    from repro.serve.workload import mixed_arrivals
    from workloads import SERVE_TENANTS, _service_seconds

    requests = mixed_arrivals(600.0, 1.5, list(SERVE_TENANTS), seed=3)
    engine = ServingEngine(
        CONFIG_16_16,
        batch_policy=BatchPolicy(max_batch=4, max_wait_ms=5.0),
        queue_policy=QueuePolicy(max_depth=40),
        replicas=2,
        routing="least-loaded",
    )
    report = engine.run(requests, 1.5)
    records = report.metrics.completed
    service = _service_seconds(CONFIG_16_16, {(r.network, r.batch_size) for r in records})
    assert report.summary["shed"] > 0, "the fixture must overload the queue"
    return requests, records, report.summary, service


def _serving(requests, records, summary, service, max_depth=40, max_batch=4):
    return checks.check_serving(
        requests, records, summary, service, CYCLE_S, max_batch, max_depth, fifo=True
    )


def test_serving_checks_pass_on_program_output(served):
    assert _serving(*served) == set()


def test_dropped_rid_fails(served):
    requests, records, summary, service = served
    assert _serving(requests, records[1:], summary, service)


def test_service_time_off_by_one_cycle_fails(served):
    requests, records, summary, service = served
    bad = list(records)
    bad[5] = dataclasses.replace(bad[5], finish_s=bad[5].finish_s + CYCLE_S)
    assert bad[5].rid in _serving(requests, bad, summary, service)


def test_overlapping_batches_fail(served):
    requests, records, summary, service = served
    first = records[0]
    later = next(
        r for r in records if r.replica == first.replica and r.start_s > first.finish_s
    )
    batch = [r for r in records if (r.replica, r.start_s) == (later.replica, later.start_s)]
    shift = later.start_s - (first.start_s + (first.finish_s - first.start_s) / 2)
    moved = {
        r.rid: dataclasses.replace(r, start_s=r.start_s - shift, finish_s=r.finish_s - shift)
        for r in batch
    }
    bad = [moved.get(r.rid, r) for r in records]
    assert {r.rid for r in batch} <= _serving(requests, bad, summary, service)


def test_oversized_batch_fails(served):
    assert _serving(*served, max_batch=1)


def test_fifo_order_violation_fails(served):
    _, records, _, _ = served
    assert checks.check_fifo(records) == set()
    by_net = [r for r in records if r.network == records[0].network]
    a, b = by_net[0], next(r for r in by_net if r.start_s > by_net[0].start_s)
    # the later arrival takes the earlier dispatch slot
    swap = {
        a.rid: dataclasses.replace(a, start_s=b.start_s, finish_s=b.finish_s),
        b.rid: dataclasses.replace(b, start_s=a.start_s, finish_s=a.finish_s),
    }
    assert checks.check_fifo([swap.get(r.rid, r) for r in records])


def test_shed_without_full_queue_fails(served):
    # with a deeper bound the replay finds room where the engine shed
    assert _serving(*served, max_depth=41)


def test_wrong_percentile_fails(served):
    requests, records, summary, service = served
    bad = dict(summary)
    bad["latency_ms"] = dict(summary["latency_ms"], p95=summary["latency_ms"]["p95"] + 1.0)
    assert _serving(requests, records, bad, service) == {r.rid for r in requests}


# -- autoscaling -----------------------------------------------------------


@pytest.fixture(scope="module")
def autoscaled():
    from repro.control import AutoscalePolicy, ControlLoop
    from repro.serve import BatchPolicy
    from repro.serve.workload import diurnal_arrivals, parse_mix

    tenants = parse_mix("alexnet:2,nin:1", slo_ms=250.0)
    requests = diurnal_arrivals(30.0, 450.0, 1.0, tenants, seed=2, day_s=40.0)
    report = ControlLoop(
        CONFIG_16_16,
        tenants,
        autoscale=AutoscalePolicy(epoch_s=1.0, max_replicas=6),
        batch_policy=BatchPolicy(max_batch=8),
        replicas=1,
    ).run(requests, 40.0)
    assert report.summary["fleet"]["peak_replicas"] > 1, "the fixture must scale"
    return requests, report.serving.metrics.completed, report.summary


def test_control_checks_pass_on_program_output(autoscaled):
    assert checks.check_control(*autoscaled) == set()


def test_control_dropped_rid_fails(autoscaled):
    requests, records, summary = autoscaled
    assert checks.check_control(requests, records[:-1], summary)


def test_dispatch_to_dead_replica_fails(autoscaled):
    requests, records, summary = autoscaled
    bad = list(records)
    bad[-1] = dataclasses.replace(bad[-1], replica=999)
    assert bad[-1].rid in checks.check_control(requests, bad, summary)


def test_dispatch_after_drain_fails(autoscaled):
    requests, records, summary = autoscaled
    drains = [e for e in summary["fleet"]["events"] if e["event"] == "drain"]
    assert drains, "the fixture must scale down"
    rid, at_ms = drains[0]["replica"], drains[0]["time_ms"]
    late = next(r for r in records if r.start_s * 1e3 > at_ms + 1.0)
    bad = [dataclasses.replace(r, replica=rid) if r.rid == late.rid else r for r in records]
    assert late.rid in checks.check_control(requests, bad, summary)


def test_busy_above_provisioned_fails(autoscaled):
    requests, records, summary = autoscaled
    bad = dict(summary)
    bad["fleet"] = dict(summary["fleet"], chip_seconds=1.0)
    assert checks.check_control(requests, records, bad) == {r.rid for r in requests}


def test_wrong_attainment_fails(autoscaled):
    requests, records, summary = autoscaled
    bad = dict(summary, deadline_hit_rate=summary["deadline_hit_rate"] - 0.01)
    assert checks.check_control(requests, records, bad) == {r.rid for r in requests}


# -- capacity planning -----------------------------------------------------


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    from repro.capacity import CandidateGrid, FaultModel, ForecastSpec, plan_capacity

    grid = CandidateGrid(
        geometries=("16-16",),
        chip_counts=(1, 2, 4),
        strategies=("replicated", "partitioned"),
        max_batches=(1, 16),
    )
    forecast = ForecastSpec.parse("a=alexnet:3/nin:1", rate=220.0, duration_s=1.0, seed=1)
    try:
        report = plan_capacity(
            grid,
            forecast,
            slo_target=0.9,
            fault_model=FaultModel(seed=2, crashes=1),
            jobs=1,
            cache_dir=str(tmp_path_factory.mktemp("plan-cache")),
        )
    finally:
        schedule_cache.configure(persist_dir="")
    assert report["search"]["pruned"] and report["search"]["feasible"]
    return report, grid.enumerate(), {"16-16": 256}


def _deployments(report, name, **changes):
    entry = dict(report["deployments"][name], **changes)
    return dict(report, deployments=dict(report["deployments"], **{name: entry}))


def test_capacity_checks_pass_on_program_output(planned):
    report, candidates, multipliers = planned
    assert checks.check_capacity(report, 0.9, candidates, multipliers) == set()


def test_pruned_candidate_above_target_fails(planned):
    report, candidates, multipliers = planned
    name = next(n for n, e in report["deployments"].items() if e["pruned"])
    entry = report["deployments"][name]
    bad = _deployments(report, name, bound=dict(entry["bound"], attainment=0.95))
    assert checks.check_capacity(bad, 0.9, candidates, multipliers) == {name}


def test_simulation_above_its_bound_fails(planned):
    report, candidates, multipliers = planned
    name = next(n for n, e in report["deployments"].items() if not e["pruned"])
    entry = report["deployments"][name]
    bad = _deployments(
        report, name, bound=dict(entry["bound"], attainment=entry["healthy"]["attainment"] - 0.01)
    )
    assert name in checks.check_capacity(bad, 0.9, candidates, multipliers)


def test_unsorted_ranking_fails(planned):
    report, candidates, multipliers = planned
    feasible = [n for n in report["ranking"] if report["deployments"][n].get("feasible")]
    assert len(feasible) >= 2
    ranking = list(report["ranking"])
    ranking[0], ranking[1] = ranking[1], ranking[0]
    bad = dict(report, ranking=ranking, winner=ranking[0])
    assert checks.check_capacity(bad, 0.9, candidates, multipliers)


def test_misreported_cost_fails(planned):
    report, candidates, multipliers = planned
    name = report["winner"]
    entry = report["deployments"][name]
    bad = _deployments(report, name, cost_per_mreq=entry["cost_per_mreq"] * 0.5)
    assert name in checks.check_capacity(bad, 0.9, candidates, multipliers)


# -- the command -----------------------------------------------------------


def test_run_without_the_program_exits_nonzero(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- the traced run --------------------------------------------------------


def test_tracer_counts_repeat_and_uninstall_restores_every_name():
    import importlib

    import tracing
    from repro.serve import BatchPolicy, QueuePolicy, ServingEngine
    from repro.serve.workload import mixed_arrivals
    from workloads import SERVE_TENANTS

    def original(module, path):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner.__dict__[attr]

    before = {(m, p): original(m, p) for m, p, _, _ in tracing.TARGETS}
    requests = mixed_arrivals(500.0, 0.5, list(SERVE_TENANTS), seed=4)
    tracer = tracing.install()
    try:
        rounds = []
        for _ in range(2):
            schedule_cache.clear()
            ServingEngine(
                CONFIG_16_16,
                batch_policy=BatchPolicy(max_batch=4),
                queue_policy=QueuePolicy(max_depth=30),
                replicas=2,
            ).run(requests, 0.5)
            rounds.append(tracer.end_round(1.0, schedule_cache.stats()))
    finally:
        tracer.uninstall()
    counts = [{k: v for k, v in r.items() if k.endswith(".calls")} for r in rounds]
    assert counts[0] == counts[1]
    assert counts[0]["serve.queue.offer.calls"] == len(requests)
    assert counts[0]["serve.engine.advance_to.calls"] == 0
    assert rounds[0]["serve.queue.oldest_arrival.self_s"] > 0
    assert {(m, p): original(m, p) for m, p, _, _ in tracing.TARGETS} == before
