"""Differential oracle: the heap-ordered queue against the scan/sort original.

Both queues are driven with the same Hypothesis-generated operation
sequences and must agree on every observable: ``offer`` (including the
:class:`ShedEvent` it returns), ``pop_batch`` (batch order and shed order),
``oldest_arrival``, ``depth``, ``networks`` and ``len``.  Requests are
compared by identity, so two requests with equal fields cannot swap places
unnoticed.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.queue import AdmissionQueue, QueuePolicy
from repro.serve.workload import Request
from tests.serve.reference_queue import ReferenceAdmissionQueue

NETWORKS = ("alexnet", "vgg")
NEVER = "never-offered"
#: few distinct dyadic values: sums stay exact, so arrival and deadline
#: ties are common and a retry can tie a newer request's arrival exactly
LAGS = (0.0, 0.0, 0.0625, 0.125, 0.25)
SLOS = (0.0625, 0.125, 0.125, 0.25)
TICKS = (0.0, 0.0625, 0.125, 0.25)
START_S = 1.0

policies = st.builds(
    QueuePolicy,
    max_depth=st.sampled_from([1, 4, 1000]),
    order=st.sampled_from(["fifo", "edf"]),
    max_age_s=st.sampled_from([None, 0.125, 0.25]),
    shed_expired=st.booleans(),
)



def offers():
    return st.tuples(
        st.just("offer"),
        st.integers(0, len(NETWORKS) - 1),
        st.sampled_from(LAGS),
        st.sampled_from(SLOS),
    )


operations = st.lists(
    st.one_of(
        # offers are drawn most often, so groups grow deep enough to matter
        offers(),
        offers(),
        offers(),
        # re-offer an already taken request with its original arrival_s
        st.tuples(st.just("retry"), st.integers(0, 10**6)),
        # max_batch None drains: pop_batch(network, len(queue), now);
        # network index len(NETWORKS) is one that is never offered
        st.tuples(
            st.just("pop"),
            st.integers(0, len(NETWORKS)),
            st.one_of(st.none(), st.integers(0, 3)),
        ),
        st.tuples(st.just("tick"), st.sampled_from(TICKS)),
    ),
    min_size=10,
    max_size=120,
)


def shed_view(event):
    if event is None:
        return None
    return (id(event.request), event.reason, event.time_s)


def observe(queue):
    """Every read-only observable of ``queue``."""
    return {
        "len": len(queue),
        "depth": queue.depth(),
        "networks": queue.networks(),
        "per_network": {net: queue.depth(net) for net in NETWORKS + (NEVER,)},
        "oldest": {net: queue.oldest_arrival(net) for net in queue.networks()},
    }


def run_both(policy, ops):
    fast = AdmissionQueue(policy)
    oracle = ReferenceAdmissionQueue(policy)
    now = START_S
    next_rid = 0
    taken = []  # requests handed out in batches, candidates for retry
    for op in ops:
        kind = op[0]
        if kind == "tick":
            now += op[1]
            continue
        if kind in ("offer", "retry"):
            if kind == "offer":
                _, net, lag, slo = op
                arrival = now - lag
                request = Request(
                    rid=next_rid,
                    tenant="t",
                    network=NETWORKS[net],
                    arrival_s=arrival,
                    deadline_s=arrival + slo,
                )
                next_rid += 1
            else:
                if not taken:
                    continue
                request = taken[op[1] % len(taken)]
            assert shed_view(fast.offer(request, now)) == shed_view(
                oracle.offer(request, now)
            )
        else:
            _, net, max_batch = op
            network = NETWORKS[net] if net < len(NETWORKS) else NEVER
            if max_batch is None:
                max_batch = len(oracle)
            batch, shed = fast.pop_batch(network, max_batch, now)
            want_batch, want_shed = oracle.pop_batch(network, max_batch, now)
            assert [id(r) for r in batch] == [id(r) for r in want_batch]
            assert [shed_view(e) for e in shed] == [shed_view(e) for e in want_shed]
            taken.extend(batch)
        assert observe(fast) == observe(oracle)


class TestHeapQueueMatchesOracle:
    @settings(deadline=None, max_examples=300)
    @given(policy=policies, ops=operations)
    @example(
        # EDF: the earliest deadline is also the oldest arrival, so serving
        # it leaves a served entry on top of the arrival heap
        policy=QueuePolicy(order="edf"),
        ops=[
            ("offer", 0, 0.0, 0.0625),
            ("tick", 0.125),
            ("offer", 0, 0.0, 0.25),
            ("pop", 0, 1),
        ],
    )
    @example(
        # a retried request re-enters with its old arrival, tying a newer
        # request's arrival: the lower rid leaves first, under both orders
        policy=QueuePolicy(order="fifo"),
        ops=[
            ("offer", 0, 0.0, 0.125),
            ("pop", 0, 1),
            ("tick", 0.125),
            ("offer", 0, 0.125, 0.125),
            ("retry", 0),
            ("pop", 0, 1),
        ],
    )
    @example(
        policy=QueuePolicy(order="edf"),
        ops=[
            ("offer", 0, 0.0, 0.125),
            ("pop", 0, 1),
            ("tick", 0.125),
            ("offer", 0, 0.125, 0.125),
            ("retry", 0),
            ("pop", 0, 1),
        ],
    )
    @example(
        # a shed request does not count towards max_batch
        policy=QueuePolicy(order="fifo", max_age_s=0.125),
        ops=[
            ("offer", 0, 0.0, 0.125),
            ("tick", 0.25),
            ("offer", 0, 0.0, 0.125),
            ("pop", 0, 1),
        ],
    )
    def test_identical_results(self, policy, ops):
        run_both(policy, ops)

    @settings(deadline=None, max_examples=100)
    @given(
        order=st.sampled_from(["fifo", "edf"]),
        ticks=st.lists(st.sampled_from(TICKS), min_size=1, max_size=40),
        slos=st.lists(st.sampled_from(SLOS), min_size=40, max_size=40),
    )
    def test_full_drain_with_ties(self, order, ticks, slos):
        """Many equal arrival and deadline keys, drained in one pop."""
        policy = QueuePolicy(order=order, max_depth=1000)
        ops = []
        for i, (tick, slo) in enumerate(zip(ticks, slos)):
            ops += [("tick", tick), ("offer", i % 2, 0.0, slo)]
        ops += [("pop", 0, None), ("pop", 1, None)]
        run_both(policy, ops)

    def test_never_offered_network_pops_empty(self):
        for order in ("fifo", "edf"):
            fast = AdmissionQueue(QueuePolicy(order=order))
            oracle = ReferenceAdmissionQueue(QueuePolicy(order=order))
            assert fast.pop_batch(NEVER, 4, 0.0) == ([], [])
            assert oracle.pop_batch(NEVER, 4, 0.0) == ([], [])
            assert fast.networks() == oracle.networks() == []
            assert fast.depth(NEVER) == oracle.depth(NEVER) == 0
