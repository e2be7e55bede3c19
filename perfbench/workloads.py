"""The four benchmark workloads.

Each workload has four phases, and only :meth:`run` is timed:

* :meth:`prepare` turns the seed into inputs (zoo builds, request streams,
  accelerator grids) -- part of set-up;
* :meth:`reset` puts the process-wide program state (the schedule cache and
  the oracle's winner memo) back to empty, so every round does the same
  work a fresh process would;
* :meth:`run` calls the program's public entry points on the inputs;
* :meth:`check` verifies one round's outputs with :mod:`checks` and
  returns ``(items attempted, failed item keys)``.

The program receives only the generated inputs; every number it computes
about the simulated accelerator is an output, checked but never scored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import checks

from repro.adaptive import batch as batch_mod
from repro.adaptive import planner
from repro.adaptive import search
from repro.arch.config import CONFIG_16_16, KB, AcceleratorConfig, named_config
from repro.capacity import CandidateGrid, FaultModel, ForecastSpec, plan_capacity
from repro.control import (
    ActuationFault,
    AutoscalePolicy,
    ControlFaultSchedule,
    ControlLoop,
    LoopCrash,
    SafeModePolicy,
    SelfHealingControlLoop,
    TelemetryFault,
)
from repro.control.policy import BATCH_CANDIDATES
from repro.isa.compiler import compile_network
from repro.nn.zoo import NETWORK_BUILDERS, build
from repro.perf.cache import schedule_cache
from repro.resilience.faults import FaultSchedule, MaskFault, PEMask
from repro.serve import BatchPolicy, QueuePolicy, ServingEngine
from repro.serve.failover import ReplicaFault
from repro.serve.workload import MixedTenantSpec, diurnal_arrivals, mixed_arrivals, parse_mix
from repro.sim.machine import Machine

__all__ = ["make"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _serving_digest(reports) -> str:
    """Digest of ``(report, completed records)`` pairs: each report's JSON
    and every completed request's timing."""
    digest = hashlib.sha256()
    for report, records in reports:
        digest.update(report.to_json().encode("utf-8"))
        timings = [(r.rid, r.start_s, r.finish_s, r.replica) for r in records]
        digest.update(repr(timings).encode("utf-8"))
    return digest.hexdigest()


def _empty_program_state() -> None:
    schedule_cache.configure(enabled=True, persist_dir="")
    schedule_cache.clear()
    # the oracle's per-layer winner memo is the schedule cache's companion:
    # without clearing it every round after the first skips the search
    search._WINNER_MEMO.clear()


class Workload:
    name = ""
    #: what one item is, for the README and the log line
    item = ""

    def prepare(self, seed: int):
        raise NotImplementedError

    def reset(self, inputs) -> None:
        _empty_program_state()

    def run(self, inputs):
        raise NotImplementedError

    def after(self, inputs) -> None:
        """Untimed clean-up after a round."""

    def items(self, inputs, output) -> int:
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        raise NotImplementedError

    def check(self, inputs, output) -> Tuple[int, Set]:
        raise NotImplementedError


# -- design-sweep ------------------------------------------------------------

#: menus the seed draws the accelerator grid from (3 x 2 x 2 x 2 = 24 points)
PE_SHAPES = ((8, 8), (16, 16), (32, 32), (8, 32), (32, 8), (16, 32), (32, 16), (64, 64))
IO_BUFFER_KB = (256, 512, 1024, 2048, 4096)
WEIGHT_BUFFER_KB = (128, 256, 512, 1024, 2048)
DRAM_WORDS_PER_CYCLE = (1.0, 2.0, 4.0, 8.0)
#: planned twice, cached and uncached, as a differential check
UNCACHED_SAMPLE = 6


@dataclass
class SweepInputs:
    nets: Dict[str, object]
    configs: List[AcceleratorConfig]
    seed: int


class DesignSweep(Workload):
    name = "design-sweep"
    item = "layer planned"

    def prepare(self, seed: int) -> SweepInputs:
        rng = random.Random(seed)
        shapes = rng.sample(PE_SHAPES, 3)
        io = rng.sample(IO_BUFFER_KB, 2)
        weight = rng.sample(WEIGHT_BUFFER_KB, 2)
        dram = rng.sample(DRAM_WORDS_PER_CYCLE, 2)
        configs = [
            AcceleratorConfig(
                tin=tin,
                tout=tout,
                input_buffer_bytes=io_kb * KB,
                output_buffer_bytes=io_kb * KB,
                weight_buffer_bytes=w_kb * KB,
                dram_words_per_cycle=bw,
            )
            for tin, tout in shapes
            for io_kb in io
            for w_kb in weight
            for bw in dram
        ]
        nets = {name: build(name) for name in sorted(NETWORK_BUILDERS)}
        return SweepInputs(nets=nets, configs=configs, seed=seed)

    def run(self, inputs: SweepInputs):
        runs = {}
        batches = {}
        for ci, config in enumerate(inputs.configs):
            for name, net in inputs.nets.items():
                for policy in planner.POLICY_NAMES:
                    runs[(ci, name, policy)] = planner.plan_network(
                        net, config, policy, include_non_conv=True
                    )
                for size in BATCH_CANDIDATES:
                    batches[(ci, name, size)] = batch_mod.plan_batch(
                        net, config, "adaptive-2", batch_size=size
                    )
        return runs, batches

    def items(self, inputs, output) -> int:
        runs, batches = output
        return sum(len(r.layers) for r in runs.values()) + sum(
            len(b.run.layers) for b in batches.values()
        )

    def fingerprint(self, output) -> str:
        runs, batches = output
        # fed run by run: one string of every record would add to peak memory
        digest = hashlib.sha256()
        for key, run in runs.items():
            signatures = [checks.layer_signature(layer) for layer in run.layers]
            digest.update(repr((key, signatures)).encode("utf-8"))
        for key, b in batches.items():
            digest.update(repr((key, b.total_cycles, b.run.dram_words)).encode("utf-8"))
        return digest.hexdigest()

    def check(self, inputs: SweepInputs, output) -> Tuple[int, Set]:
        runs, batches = output
        nets, configs = inputs.nets, inputs.configs
        failed = checks.check_sweep_schemes(runs, nets, configs)
        failed |= checks.check_sweep_oracle(runs, nets)
        failed |= checks.check_sweep_ideal(runs, nets, configs)

        rng = random.Random(inputs.seed + 1)
        sample = rng.sample(sorted(runs), UNCACHED_SAMPLE)
        schedule_cache.configure(enabled=False)
        try:
            uncached = {
                (ci, name, policy): planner.plan_network(
                    nets[name], configs[ci], policy, include_non_conv=True
                )
                for ci, name, policy in sample
            }
        finally:
            schedule_cache.configure(enabled=True)
        failed |= checks.check_sweep_same(runs, uncached)

        # the machine cross-check, once per network and PE shape
        seen_shapes = set()
        for ci, config in enumerate(configs):
            if (config.tin, config.tout) in seen_shapes:
                continue
            seen_shapes.add((config.tin, config.tout))
            for name, net in nets.items():
                conv_run = planner.plan_network(net, config, "adaptive-2")
                result = Machine(config).execute(
                    compile_network(net, config, "adaptive-2")
                )
                failed |= checks.check_machine(
                    (ci, name, "adaptive-2"), conv_run, result, net
                )
        return self.items(inputs, output), failed


# -- serve-overload ----------------------------------------------------------

#: two tenants, two SLOs, three networks (weights: bronze sends 2/3)
SERVE_TENANTS = (
    MixedTenantSpec("gold", (("alexnet", 3.0), ("nin", 1.0)), weight=1.0, slo_ms=150.0),
    MixedTenantSpec(
        "bronze", (("googlenet", 2.0), ("alexnet", 1.0)), weight=2.0, slo_ms=600.0
    ),
)
SERVE_REPLICAS = 2
SERVE_MAX_BATCH = 8
SERVE_MAX_WAIT_MS = 5.0
#: the two 16-16 replicas serve this mix at ~302 req/s batched at 8;
#: offering ~1.5x that keeps the bounded queue at its limit
SERVE_RATE = 450.0
#: every seed offers exactly this many requests (~16 s of arrivals), so
#: the work of a round does not vary with the Poisson count
SERVE_REQUESTS = 7200
SERVE_DEPTH = 1000
SERVE_ORDERS = ("fifo", "edf")


@dataclass
class ServeInputs:
    requests: list
    duration_s: float


class ServeOverload(Workload):
    name = "serve-overload"
    item = "offered request"

    def prepare(self, seed: int) -> ServeInputs:
        window = 1.25 * SERVE_REQUESTS / SERVE_RATE
        requests = mixed_arrivals(SERVE_RATE, window, list(SERVE_TENANTS), seed=seed)
        requests = requests[:SERVE_REQUESTS]
        return ServeInputs(requests=requests, duration_s=requests[-1].arrival_s)

    def run(self, inputs: ServeInputs):
        reports = {}
        for order in SERVE_ORDERS:
            engine = ServingEngine(
                CONFIG_16_16,
                batch_policy=BatchPolicy(
                    max_batch=SERVE_MAX_BATCH, max_wait_ms=SERVE_MAX_WAIT_MS
                ),
                queue_policy=QueuePolicy(max_depth=SERVE_DEPTH, order=order),
                replicas=SERVE_REPLICAS,
                routing="least-loaded",
            )
            reports[order] = engine.run(inputs.requests, inputs.duration_s)
        return reports

    def items(self, inputs, output) -> int:
        return len(SERVE_ORDERS) * len(inputs.requests)

    def fingerprint(self, output) -> str:
        return _serving_digest(
            (output[order], output[order].metrics.completed) for order in SERVE_ORDERS
        )

    def check(self, inputs: ServeInputs, output) -> Tuple[int, Set]:
        service = _service_seconds(
            CONFIG_16_16,
            {
                (r.network, r.batch_size)
                for order in SERVE_ORDERS
                for r in output[order].metrics.completed
            },
        )
        failed: Set = set()
        for order in SERVE_ORDERS:
            report = output[order]
            bad = checks.check_serving(
                inputs.requests,
                report.metrics.completed,
                report.summary,
                service,
                cycle_s=CONFIG_16_16.cycles_to_seconds(1),
                max_batch=SERVE_MAX_BATCH,
                max_depth=SERVE_DEPTH,
                fifo=order == "fifo",
            )
            failed |= {(order, rid) for rid in bad}
        return self.items(inputs, output), failed


def _service_seconds(config, keys) -> Dict[Tuple[str, int], float]:
    """Batch service times straight from ``plan_batch`` on fresh networks."""
    nets = {name: build(name) for name in sorted({n for n, _ in keys})}
    return {
        (name, size): config.cycles_to_seconds(
            batch_mod.plan_batch(nets[name], config, "adaptive-2", batch_size=size).total_cycles
        )
        for name, size in sorted(keys)
    }


# -- autoscale-chaos ---------------------------------------------------------

AUTO_MIX = "alexnet:2,googlenet:1,nin:1"
AUTO_SLO_MS = 250.0
AUTO_BASE_RATE = 15.0
AUTO_PEAK_RATE = 120.0
AUTO_DAYS = 2.0
AUTO_DAY_S = 50.0
AUTO_DURATION_S = AUTO_DAYS * AUTO_DAY_S
AUTO_EPOCH_S = 1.0
#: (start, duration) as day fractions, and the rate factor
AUTO_FLASHES = ((0.55, 0.08, 2.5), (1.30, 0.10, 2.0))
#: every seed offers exactly this many requests: the stream is cut after
#: the 7600th arrival, in the last trough (seeds draw 7687-8130 in full)
AUTO_REQUESTS = 7600
AUTO_MAX_BATCH = 8
AUTO_DEPTH = 256


def _auto_epoch(fraction: float) -> int:
    return int(fraction * AUTO_DURATION_S / AUTO_EPOCH_S)


#: the composite schedule of the self-healing pass
AUTO_DATA_FAULTS = FaultSchedule(
    replica_faults=(
        ReplicaFault("crash", 1, 0.30 * AUTO_DURATION_S),
        ReplicaFault(
            "slow", 0, 0.60 * AUTO_DURATION_S, factor=3.0, duration_s=0.05 * AUTO_DURATION_S
        ),
    ),
    mask_faults=(MaskFault(0.45 * AUTO_DURATION_S, 0, PEMask(4, 0)),),
)
AUTO_CONTROL_FAULTS = ControlFaultSchedule(
    telemetry=(
        TelemetryFault("stale", _auto_epoch(0.50)),
        TelemetryFault("loss", _auto_epoch(0.50) + 1, 0.5),
    ),
    actuation=(ActuationFault(_auto_epoch(0.20), "fail"),),
    crashes=(LoopCrash(_auto_epoch(0.70), 2),),
)


@dataclass
class AutoInputs:
    tenants: list
    requests: list


class AutoscaleChaos(Workload):
    name = "autoscale-chaos"
    item = "offered request (both loops)"

    def prepare(self, seed: int) -> AutoInputs:
        tenants = parse_mix(AUTO_MIX, slo_ms=AUTO_SLO_MS)
        flashes = [
            (start * AUTO_DAY_S, length * AUTO_DAY_S, factor)
            for start, length, factor in AUTO_FLASHES
        ]
        requests = diurnal_arrivals(
            AUTO_BASE_RATE,
            AUTO_PEAK_RATE,
            AUTO_DAYS,
            tenants,
            seed=seed,
            day_s=AUTO_DAY_S,
            flash_crowds=flashes,
            churn=0.25,
        )
        if len(requests) < AUTO_REQUESTS:
            raise RuntimeError(f"seed {seed} drew only {len(requests)} requests")
        return AutoInputs(tenants=tenants, requests=requests[:AUTO_REQUESTS])

    def run(self, inputs: AutoInputs):
        batch_policy = BatchPolicy(max_batch=AUTO_MAX_BATCH)
        queue_policy = QueuePolicy(max_depth=AUTO_DEPTH)
        autoscaled = ControlLoop(
            CONFIG_16_16,
            inputs.tenants,
            autoscale=AutoscalePolicy(epoch_s=AUTO_EPOCH_S, max_replicas=12),
            batch_policy=batch_policy,
            queue_policy=queue_policy,
            replicas=1,
        ).run(inputs.requests, AUTO_DURATION_S)
        healing = SelfHealingControlLoop(
            CONFIG_16_16,
            inputs.tenants,
            autoscale=AutoscalePolicy(
                epoch_s=AUTO_EPOCH_S, min_replicas=2, max_replicas=12
            ),
            control_faults=AUTO_CONTROL_FAULTS,
            # the composite storm would trip the default safe-mode
            # threshold; this pass measures repair, not do-no-harm
            safe_mode=SafeModePolicy(fault_threshold=5, window_epochs=6),
            batch_policy=batch_policy,
            queue_policy=queue_policy,
            replicas=2,
        ).run(inputs.requests, AUTO_DURATION_S, data_faults=AUTO_DATA_FAULTS)
        return {"autoscale": autoscaled, "healing": healing}

    def items(self, inputs, output) -> int:
        return len(output) * len(inputs.requests)

    def fingerprint(self, output) -> str:
        return _serving_digest(
            (output[k], output[k].serving.metrics.completed) for k in sorted(output)
        )

    def check(self, inputs: AutoInputs, output) -> Tuple[int, Set]:
        failed: Set = set()
        for loop, report in sorted(output.items()):
            bad = checks.check_control(
                inputs.requests, report.serving.metrics.completed, report.summary
            )
            failed |= {(loop, rid) for rid in bad}
        return self.items(inputs, output), failed


# -- capacity-plan -----------------------------------------------------------

CAPACITY_TENANTS = "acme=alexnet:9/nin:1,beta=alexnet:4/nin:1/googlenet:1@2"
#: the target's capacity threshold is ~0.78 x the rate (the bound credits
#: one SLO of slack over ~1.14 s): at 700 req/s it sits in the widest gap
#: between candidate capacities (458 -> 630 req/s), 16% from either side,
#: so every seed prunes the same 31 candidates and simulates the same 9
CAPACITY_RATE = 700.0
#: every seed's forecast holds exactly this many requests
CAPACITY_REQUESTS = 800
CAPACITY_SLO_MS = 250.0
CAPACITY_TARGET = 0.95
CAPACITY_GRID = CandidateGrid(
    geometries=("16-16", "32-32"),
    chip_counts=(1, 2, 4),
    strategies=("replicated", "pipeline", "data-parallel", "partitioned"),
    groups=(2,),
    splits=(2,),
    max_batches=(1, 16),
)
CAPACITY_FAULTS = FaultModel(seed=4, crashes=1)


@dataclass
class CapacityInputs:
    forecast: ForecastSpec
    scratch: str
    cache_dir: str = ""


class CapacityPlan(Workload):
    name = "capacity-plan"
    item = "grid candidate"

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch

    def prepare(self, seed: int) -> CapacityInputs:
        # the forecast's arrival times do not depend on its duration, so a
        # window ending between the N-th and the next arrival holds N requests
        probe = ForecastSpec.parse(
            CAPACITY_TENANTS,
            rate=CAPACITY_RATE,
            duration_s=1.25 * CAPACITY_REQUESTS / CAPACITY_RATE,
            slo_ms=CAPACITY_SLO_MS,
            seed=seed,
        )
        arrivals = probe.requests()
        end = (
            arrivals[CAPACITY_REQUESTS - 1].arrival_s
            + arrivals[CAPACITY_REQUESTS].arrival_s
        ) / 2
        forecast = dataclasses.replace(probe, duration_s=end)
        if len(forecast.requests()) != CAPACITY_REQUESTS:
            raise RuntimeError("capacity-plan forecast does not hold the planned request count")
        return CapacityInputs(forecast=forecast, scratch=self.scratch)

    def reset(self, inputs: CapacityInputs) -> None:
        _empty_program_state()
        # a fresh, empty on-disk plan cache per round, inside the checkout
        inputs.cache_dir = tempfile.mkdtemp(prefix="plan-cache-", dir=inputs.scratch)

    def run(self, inputs: CapacityInputs):
        return plan_capacity(
            CAPACITY_GRID,
            inputs.forecast,
            slo_target=CAPACITY_TARGET,
            fault_model=CAPACITY_FAULTS,
            jobs=1,
            cache_dir=inputs.cache_dir,
        )

    def after(self, inputs: CapacityInputs) -> None:
        # plan_capacity leaves the process-wide cache persisting; turn it off
        schedule_cache.configure(persist_dir="")
        if inputs.cache_dir:
            shutil.rmtree(inputs.cache_dir, ignore_errors=True)
            inputs.cache_dir = ""

    def items(self, inputs, output) -> int:
        return len(output["deployments"])

    def fingerprint(self, output) -> str:
        from repro.capacity import report_to_json

        return _digest(report_to_json(output))

    def check(self, inputs: CapacityInputs, output) -> Tuple[int, Set]:
        candidates = CAPACITY_GRID.enumerate()
        multipliers = {g: named_config(g).multipliers for g in CAPACITY_GRID.geometries}
        failed = checks.check_capacity(output, CAPACITY_TARGET, candidates, multipliers)
        return len(candidates), failed


def make(name: str, scratch: str) -> Workload:
    if name == CapacityPlan.name:
        return CapacityPlan(scratch)
    return {w.name: w for w in (DesignSweep, ServeOverload, AutoscaleChaos)}[name]()

