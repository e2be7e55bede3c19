"""Reference admission queue: the list/scan/sort implementation, kept verbatim.

:class:`repro.serve.queue.AdmissionQueue` keeps each network group in a
heap.  This is the implementation it replaced: every ``oldest_arrival``
scans the group and every ``pop_batch`` re-sorts it.  It stays here as the
differential oracle for ``test_queue_oracle.py`` — both classes must give
identical results for any sequence of operations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.serve.queue import (
    SHED_EXPIRED,
    SHED_MAX_AGE,
    SHED_QUEUE_FULL,
    QueuePolicy,
    ShedEvent,
)
from repro.serve.workload import Request


class ReferenceAdmissionQueue:
    """Per-network request queues under one :class:`QueuePolicy`."""

    def __init__(self, policy: QueuePolicy = QueuePolicy()) -> None:
        self.policy = policy
        self._groups: Dict[str, List[Request]] = {}
        self._depth = 0

    def __len__(self) -> int:
        return self._depth

    def depth(self, network: Optional[str] = None) -> int:
        if network is None:
            return self._depth
        return len(self._groups.get(network, ()))

    def networks(self) -> List[str]:
        """Networks with queued requests, in deterministic name order."""
        return sorted(name for name, group in self._groups.items() if group)

    def oldest_arrival(self, network: str) -> float:
        """Arrival time of the longest-waiting request for ``network``."""
        group = self._groups[network]
        return min(r.arrival_s for r in group)

    # -- admission --------------------------------------------------------

    def offer(self, request: Request, now: float) -> Optional[ShedEvent]:
        """Admit ``request`` or return the :class:`ShedEvent` rejecting it."""
        if self._depth >= self.policy.max_depth:
            return ShedEvent(request, SHED_QUEUE_FULL, now)
        self._groups.setdefault(request.network, []).append(request)
        self._depth += 1
        return None

    # -- dispatch ---------------------------------------------------------

    def _sort_key(self, request: Request) -> Tuple:
        if self.policy.order == "edf":
            return (request.deadline_s, request.arrival_s, request.rid)
        return (request.arrival_s, request.rid)

    def pop_batch(
        self, network: str, max_batch: int, now: float
    ) -> Tuple[List[Request], List[ShedEvent]]:
        """Take up to ``max_batch`` servable requests for ``network``.

        Requests that aged out (or expired) while queued are shed rather
        than returned; shedding continues past them so a stale head of the
        queue cannot starve fresh requests behind it.
        """
        group = self._groups.get(network, [])
        group.sort(key=self._sort_key)
        batch: List[Request] = []
        shed: List[ShedEvent] = []
        kept: List[Request] = []
        for request in group:
            if len(batch) >= max_batch:
                kept.append(request)
                continue
            age = now - request.arrival_s
            if self.policy.max_age_s is not None and age > self.policy.max_age_s:
                shed.append(ShedEvent(request, SHED_MAX_AGE, now))
            elif self.policy.shed_expired and now > request.deadline_s:
                shed.append(ShedEvent(request, SHED_EXPIRED, now))
            else:
                batch.append(request)
        self._groups[network] = kept
        self._depth -= len(batch) + len(shed)
        return batch, shed
