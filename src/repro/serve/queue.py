"""Admission queue: bounded depth, deadline-aware ordering, load shedding.

The queue is the pressure-relief valve between open-loop arrivals and the
accelerator's finite service rate.  Three policies interact:

* **bounded depth** — an arrival finding ``max_depth`` requests already
  queued is rejected on the spot (backpressure to the caller);
* **ordering** — within a network group, ``fifo`` serves in arrival order,
  ``edf`` (earliest deadline first) serves the most urgent request first,
  which trades mean latency for goodput when tenants carry mixed SLOs;
* **age shedding** — at dispatch time, requests that have already waited
  past ``max_age_s`` (or past their own deadline, with ``shed_expired``)
  are dropped instead of burning accelerator cycles on an answer nobody
  is waiting for anymore.

Requests are grouped *per network* because a batch must share weights: the
batcher can only fuse requests that run the same model.  Each group is a
heap in policy order (see :class:`AdmissionQueue`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.serve.workload import Request

__all__ = ["QueuePolicy", "AdmissionQueue", "ShedEvent", "QUEUE_ORDERS"]

QUEUE_ORDERS = ("fifo", "edf")

#: shed reasons, also the keys of the metrics shed breakdown
SHED_QUEUE_FULL = "queue_full"
SHED_MAX_AGE = "max_age"
SHED_EXPIRED = "expired"


@dataclass(frozen=True)
class QueuePolicy:
    """Knobs governing admission, ordering and shedding."""

    max_depth: int = 256
    order: str = "fifo"
    max_age_s: Optional[float] = None
    shed_expired: bool = False

    def __post_init__(self) -> None:
        if self.max_depth <= 0:
            raise ConfigError(f"max_depth must be positive, got {self.max_depth!r}")
        if self.order not in QUEUE_ORDERS:
            raise ConfigError(
                f"unknown queue order {self.order!r}; choose from {QUEUE_ORDERS}"
            )
        if self.max_age_s is not None and self.max_age_s <= 0:
            raise ConfigError(f"max_age_s must be positive, got {self.max_age_s!r}")


@dataclass(frozen=True)
class ShedEvent:
    """One dropped request and why."""

    request: Request
    reason: str
    time_s: float


class AdmissionQueue:
    """Per-network request queues under one :class:`QueuePolicy`.

    Each network group is a binary heap keyed on the policy's total order —
    ``(arrival_s, rid)`` for FIFO, ``(deadline_s, arrival_s, rid)`` for EDF
    — with an insertion counter as the last tie-break, so equal keys leave
    in the order they were offered.  ``offer`` and each request
    ``pop_batch`` takes are O(log n).  Under FIFO the heap top is also the
    oldest arrival; EDF keeps a second ``(arrival_s, seq)`` heap per group
    whose served entries are dropped lazily when they reach its top, which
    makes ``oldest_arrival`` O(1) amortised under both orders.

    Arrival-ordered deques would not do: retried requests are re-offered
    with their original ``arrival_s``, so requests do not enter the queue
    in arrival order.
    """

    def __init__(self, policy: QueuePolicy = QueuePolicy()) -> None:
        self.policy = policy
        self._edf = policy.order == "edf"
        #: network -> heap of (*sort key, seq, request); no empty groups
        self._groups: Dict[str, List[Tuple]] = {}
        #: EDF only: network -> heap of (arrival_s, seq), served ones lazily
        self._arrivals: Dict[str, List[Tuple[float, int]]] = {}
        #: EDF only: network -> seqs served but still in ``_arrivals``
        self._served: Dict[str, Set[int]] = {}
        self._seq = 0
        self._depth = 0

    def __len__(self) -> int:
        return self._depth

    def depth(self, network: Optional[str] = None) -> int:
        if network is None:
            return self._depth
        return len(self._groups.get(network, ()))

    def networks(self) -> List[str]:
        """Networks with queued requests, in deterministic name order."""
        return sorted(self._groups)

    def oldest_arrival(self, network: str) -> float:
        """Arrival time of the longest-waiting request for ``network``."""
        if not self._edf:
            return self._groups[network][0][0]
        arrivals = self._arrivals[network]
        served = self._served[network]
        while arrivals[0][1] in served:
            served.discard(heapq.heappop(arrivals)[1])
        return arrivals[0][0]

    # -- admission --------------------------------------------------------

    def offer(self, request: Request, now: float) -> Optional[ShedEvent]:
        """Admit ``request`` or return the :class:`ShedEvent` rejecting it."""
        if self._depth >= self.policy.max_depth:
            return ShedEvent(request, SHED_QUEUE_FULL, now)
        seq = self._seq
        self._seq = seq + 1
        network = request.network
        group = self._groups.get(network)
        if group is None:
            group = self._groups[network] = []
            if self._edf:
                self._arrivals[network] = []
                self._served[network] = set()
        if self._edf:
            heapq.heappush(
                group,
                (request.deadline_s, request.arrival_s, request.rid, seq, request),
            )
            heapq.heappush(self._arrivals[network], (request.arrival_s, seq))
        else:
            heapq.heappush(group, (request.arrival_s, request.rid, seq, request))
        self._depth += 1
        return None

    # -- dispatch ---------------------------------------------------------

    def pop_batch(
        self, network: str, max_batch: int, now: float
    ) -> Tuple[List[Request], List[ShedEvent]]:
        """Take up to ``max_batch`` servable requests for ``network``.

        Requests leave in policy order.  Requests that aged out (or
        expired) while queued are shed rather than returned; shedding
        continues past them so a stale head of the queue cannot starve
        fresh requests behind it.
        """
        batch: List[Request] = []
        shed: List[ShedEvent] = []
        group = self._groups.get(network)
        if group is None:
            return batch, shed
        max_age_s = self.policy.max_age_s
        shed_expired = self.policy.shed_expired
        served = self._served.get(network)
        while group and len(batch) < max_batch:
            entry = heapq.heappop(group)
            request = entry[-1]
            if served is not None:
                served.add(entry[-2])
            age = now - request.arrival_s
            if max_age_s is not None and age > max_age_s:
                shed.append(ShedEvent(request, SHED_MAX_AGE, now))
            elif shed_expired and now > request.deadline_s:
                shed.append(ShedEvent(request, SHED_EXPIRED, now))
            else:
                batch.append(request)
        self._depth -= len(batch) + len(shed)
        if not group:
            del self._groups[network]
            if served is not None:
                del self._arrivals[network], self._served[network]
        elif served is not None and len(served) > len(group):
            # more served than queued entries in the arrival heap: rebuild
            # it from the queued ones (amortised O(1) per served request)
            arrivals = [e for e in self._arrivals[network] if e[1] not in served]
            heapq.heapify(arrivals)
            self._arrivals[network] = arrivals
            served.clear()
        return batch, shed
