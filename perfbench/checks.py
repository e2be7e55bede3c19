"""Output checks, computed apart from the program.

Every check returns the set of *items* (the workload's unit of work) whose
output is wrong; the runner counts each such item as a failed operation.
The expected values are recomputed here from first principles (Algorithm
2's rule, the ideal-cycle formula, a queue replay, percentiles from the
per-request records) or are properties the method must have (the oracle
never loses to a fixed scheme, conservation of requests, no overlapping
batches).  None of them compares against a stored copy of a past output.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

__all__ = [
    "algorithm2_scheme",
    "check_sweep_schemes",
    "check_sweep_oracle",
    "check_sweep_ideal",
    "check_sweep_same",
    "check_machine",
    "check_fifo",
    "check_serving",
    "check_control",
    "check_capacity",
    "percentile",
]

#: fixed-scheme and adaptive policies the oracle must never lose to
COMPARED_POLICIES = ("inter", "intra", "partition", "adaptive-1", "adaptive-2")

#: absolute slack when comparing values the program rounded to 6 decimals
ROUNDED = 5.01e-7


# -- design sweep ----------------------------------------------------------


def algorithm2_scheme(kernel: int, stride: int, din: int, tin: int) -> str:
    """Algorithm 2 (adap-2) for one conv layer, from its per-group geometry."""
    if kernel == stride and kernel != 1:
        return "intra"
    if stride < kernel and din < tin:
        return "partition"
    return "inter-improved"


def _conv_layers(net) -> List[Tuple[int, object]]:
    """(position in the whole forward pass, context) of every conv layer."""
    from repro.nn.layers import ConvLayer

    return [
        (i, ctx)
        for i, ctx in enumerate(net.contexts())
        if isinstance(ctx.layer, ConvLayer)
    ]


def _whole_run(key, run, net) -> Set:
    return {key + (i,) for i in range(max(len(run.layers), len(list(net.contexts()))))}


def check_sweep_schemes(runs: Mapping, nets: Mapping, configs: Sequence) -> Set:
    """``adaptive-2``'s per-layer scheme equals Algorithm 2 recomputed.

    ``runs`` maps ``(config index, network, policy)`` to whole-forward-pass
    :class:`~repro.sim.trace.NetworkRun` records; failed items are
    ``(config index, network, policy, layer position)``.
    """
    failed: Set = set()
    for (ci, name, policy), run in runs.items():
        if policy != "adaptive-2":
            continue
        net = nets[name]
        if len(run.layers) != len(list(net.contexts())):
            failed |= _whole_run((ci, name, policy), run, net)
            continue
        tin = configs[ci].tin
        for i, ctx in _conv_layers(net):
            layer = ctx.layer
            expected = algorithm2_scheme(
                layer.kernel, layer.stride, layer.in_maps // layer.groups, tin
            )
            if run.layers[i].scheme != expected:
                failed.add((ci, name, policy, i))
    return failed


def check_sweep_oracle(runs: Mapping, nets: Mapping) -> Set:
    """The oracle's cycles are <= every compared policy's, per conv layer."""
    failed: Set = set()
    for (ci, name, policy), oracle in runs.items():
        if policy != "oracle":
            continue
        for i, _ in _conv_layers(nets[name]):
            for other in COMPARED_POLICIES:
                rival = runs[(ci, name, other)]
                if (
                    i >= len(oracle.layers)
                    or i >= len(rival.layers)
                    or oracle.layers[i].total_cycles > rival.layers[i].total_cycles
                ):
                    failed.add((ci, name, policy, i))
    return failed


def check_sweep_ideal(runs: Mapping, nets: Mapping, configs: Sequence) -> Set:
    """``ideal`` compute cycles equal ceil(MACs / (Tin * Tout)) per layer."""
    failed: Set = set()
    for (ci, name, policy), run in runs.items():
        if policy != "ideal":
            continue
        config = configs[ci]
        for i, ctx in _conv_layers(nets[name]):
            layer = ctx.layer
            din = layer.in_maps // layer.groups
            dout = layer.out_maps // layer.groups
            macs = (
                layer.groups
                * ctx.out_shape.width
                * ctx.out_shape.height
                * layer.kernel
                * layer.kernel
                * din
                * dout
            )
            expected = -(-macs // (config.tin * config.tout))
            if i >= len(run.layers) or run.layers[i].compute_cycles != expected:
                failed.add((ci, name, policy, i))
    return failed


def layer_signature(record) -> Tuple:
    """What two plans of one layer must agree on."""
    return (
        record.scheme,
        record.operations,
        record.useful_macs,
        record.total_cycles,
        record.dram_words,
        record.buffer_accesses,
    )


def check_sweep_same(runs: Mapping, others: Mapping) -> Set:
    """Plans in ``others`` (e.g. re-planned uncached) equal ``runs``, layer by layer."""
    failed: Set = set()
    for key, other in others.items():
        run = runs[key]
        n = max(len(run.layers), len(other.layers))
        for i in range(n):
            if (
                i >= len(run.layers)
                or i >= len(other.layers)
                or layer_signature(run.layers[i]) != layer_signature(other.layers[i])
            ):
                failed.add(key + (i,))
    return failed


def check_machine(key, conv_run, machine_result, net) -> Set:
    """The compiled program, executed on the machine, reproduces the plan.

    ``conv_run`` is the planner's conv-only run (what ``compile_network``
    lowers); the machine must retire exactly its operations, MACs, buffer
    accesses and off-chip words, and its wall-clock may differ by at most
    the rounding of one reshape stream per layer.
    """
    exact = (
        machine_result.compute_cycles == conv_run.compute_cycles
        and machine_result.useful_macs == conv_run.total_macs
        and machine_result.buffer_accesses == conv_run.buffer_accesses
        and machine_result.dram_words == conv_run.dram_words
    )
    slack = 1.0 + len(conv_run.layers)
    if exact and abs(machine_result.total_cycles - conv_run.total_cycles) <= slack:
        return set()
    return {key + (i,) for i, _ in _conv_layers(net)}


# -- serving ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _batches(records) -> Dict[Tuple[int, float], List]:
    groups: Dict[Tuple[int, float], List] = defaultdict(list)
    for record in records:
        groups[(record.replica, record.start_s)].append(record)
    return groups


def _conservation(requests, records, summary) -> Set[int]:
    """Each offered rid is completed once; the rest match shed + failed."""
    offered = {r.rid for r in requests}
    failed: Set[int] = set()
    seen: Set[int] = set()
    for record in records:
        if record.rid not in offered or record.rid in seen:
            failed.add(record.rid)
        seen.add(record.rid)
    unfinished = offered - seen
    if (
        len(unfinished) != int(summary["shed"]) + int(summary["failed"])
        or int(summary["offered"]) != len(offered)
        or int(summary["completed"]) != len(records)
    ):
        failed |= unfinished or offered
    return failed


def check_fifo(records: Sequence) -> Set[int]:
    """FIFO starts are in arrival order within each network."""
    failed: Set[int] = set()
    by_network: Dict[str, List] = defaultdict(list)
    for record in records:
        by_network[record.network].append(record)
    for group in by_network.values():
        group.sort(key=lambda r: (r.arrival_s, r.rid))
        for prev, record in zip(group, group[1:]):
            if record.start_s < prev.start_s:
                failed.add(record.rid)
    return failed


def check_serving(
    requests: Sequence,
    records: Sequence,
    summary: Mapping,
    service_s: Mapping[Tuple[str, int], float],
    cycle_s: float,
    max_batch: int,
    max_depth: int,
    fifo: bool,
) -> Set[int]:
    """Checks on one open-loop serving run; returns the failed rids.

    ``service_s`` maps ``(network, batch size)`` to the batch service time
    computed directly from ``plan_batch``; ``cycle_s`` is one accelerator
    cycle, the tolerance a service time must meet.
    """
    failed = _conservation(requests, records, summary)
    everyone = {r.rid for r in requests}
    tolerance = 0.01 * cycle_s

    for record in records:
        expected = service_s.get((record.network, record.batch_size))
        if (
            record.start_s < record.arrival_s
            or expected is None
            or abs((record.finish_s - record.start_s) - expected) > tolerance
        ):
            failed.add(record.rid)

    per_replica: Dict[int, List] = defaultdict(list)
    for (replica, start), batch in _batches(records).items():
        networks = {r.network for r in batch}
        if (
            len(batch) > max_batch
            or len(networks) != 1
            or any(r.batch_size != len(batch) for r in batch)
            or len({r.finish_s for r in batch}) != 1
        ):
            failed |= {r.rid for r in batch}
        per_replica[replica].append((start, batch[0].finish_s, batch))
    for spans in per_replica.values():
        spans.sort(key=lambda s: s[0])
        for (_, prev_end, prev), (start, _, batch) in zip(spans, spans[1:]):
            if start < prev_end:
                failed |= {r.rid for r in batch} | {r.rid for r in prev}

    if fifo:
        failed |= check_fifo(records)

    # replay arrivals and starts: a request is shed for a full queue
    # exactly when the replayed depth has reached the bound
    if set(summary.get("shed_by_reason", {})) - {"queue_full"}:
        failed |= everyone
    completed = {r.rid for r in records}
    events = [(r.arrival_s, 0, r.rid) for r in requests]
    events += [(r.start_s, 1, r.rid) for r in records]
    events.sort()
    depth = 0
    for _, kind, rid in events:
        if kind == 1:
            depth -= 1
        elif rid in completed:
            if depth >= max_depth:
                failed.add(rid)
            depth += 1
        elif depth < max_depth:
            failed.add(rid)

    # the report's latency percentiles, recomputed from the records
    latencies = [(r.finish_s - r.arrival_s) * 1e3 for r in records]
    reported = summary["latency_ms"]
    for q in (50, 95, 99):
        if abs(percentile(latencies, q) - reported[f"p{q}"]) > ROUNDED:
            failed |= everyone
    return failed


def check_control(requests: Sequence, records: Sequence, summary: Mapping) -> Set[int]:
    """Checks on one closed-loop (autoscaled) run; returns the failed rids."""
    failed = _conservation(requests, records, summary)
    everyone = {r.rid for r in requests}

    fleet = summary["fleet"]
    replicas = {d["rid"]: d for d in summary["per_replica"]}
    # the first instant a replica stopped taking work (drain or crash)
    stopped: Dict[int, float] = {}
    for event in fleet["events"]:
        if event["event"] in ("drain", "crash") and event["replica"] is not None:
            rid = event["replica"]
            stopped[rid] = min(stopped.get(rid, math.inf), event["time_ms"])

    busy = 0.0
    for (replica, start), batch in _batches(records).items():
        detail = replicas.get(replica)
        start_ms = start * 1e3
        finish = batch[0].finish_s
        live = (
            detail is not None
            and detail["added_ms"] <= start_ms + ROUNDED
            and start_ms <= stopped.get(replica, math.inf) + ROUNDED
            and (
                detail["retired_ms"] is None
                or finish * 1e3 <= detail["retired_ms"] + ROUNDED
            )
        )
        if not live:
            failed |= {r.rid for r in batch}
        busy += finish - start
    if busy > float(fleet["chip_seconds"]) + ROUNDED:
        failed |= everyone

    met = sum(1 for r in records if r.finish_s <= r.deadline_s)
    attainment = met / len(requests) if requests else 0.0
    if abs(attainment - float(summary["deadline_hit_rate"])) > ROUNDED:
        failed |= everyone
    return failed


# -- capacity planning -----------------------------------------------------


def check_capacity(
    report: Mapping, slo_target: float, candidates: Iterable, multipliers: Mapping
) -> Set[str]:
    """Checks on one capacity-planner report; returns failed candidate names.

    ``multipliers`` maps each geometry name to its PE count, from which the
    cost per million good requests is recomputed (16-16 = weight 1).
    """
    names = [c.name for c in candidates]
    failed: Set[str] = set()
    deployments = report["deployments"]
    ranking = list(report["ranking"])
    if sorted(ranking) != sorted(names) or set(deployments) != set(names):
        failed |= set(names)

    for name in names:
        entry = deployments.get(name)
        if entry is None:
            continue
        bound = entry["bound"]["attainment"]
        if entry["pruned"]:
            if bound >= slo_target:
                failed.add(name)
            continue
        healthy = entry["healthy"]
        if healthy["attainment"] > bound + ROUNDED:
            failed.add(name)
        candidate = entry["candidate"]
        weight = candidate["n_chips"] * multipliers[candidate["geometry"]] / 256
        cost = 1e6 * weight * healthy["makespan_s"] / max(healthy["deadline_met"], 1)
        if abs(cost - entry["cost_per_mreq"]) > ROUNDED + 1e-12 * cost:
            failed.add(name)
        if entry["feasible"] != (healthy["attainment"] >= slo_target):
            failed.add(name)

    feasible = [n for n in ranking if deployments.get(n, {}).get("feasible")]
    if ranking[: len(feasible)] != feasible:
        failed |= set(feasible)
    costs = [deployments[n]["cost_per_mreq"] for n in feasible]
    for name, prev, cost in zip(feasible[1:], costs, costs[1:]):
        if cost < prev:
            failed.add(name)
    winner = report["winner"]
    if feasible and (winner != ranking[0] or winner not in feasible):
        failed.add(winner)
    if not feasible:
        failed |= set(names)
    return failed
