"""Stateful property tests: the flow solvers track networkx through mutations.

Two hypothesis rule-based machines.  The first grows a random network,
reconfigures capacities and repeatedly compares max-flow values against the
networkx reference — exercising the solver's reuse path (reset-and-resolve)
far more aggressively than the one-shot tests.  The second keeps one
feasibility oracle across probes that open and close slots and grow and
shrink the job prefix, so every probe is answered from the previous flow,
and compares each answer with a freshly built oracle and with networkx.
"""

import hypothesis.strategies as st
import networkx as nx
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.activetime import ActiveTimeSchedule
from repro.core import Instance, Job
from repro.flow import ActiveTimeFeasibility, Dinic

MAX_NODES = 8


class DinicVsNetworkx(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # node 0 = source, node 1 = sink; the rest join one by one
        self.net = Dinic(MAX_NODES)
        self.n = 2
        self.G = nx.DiGraph()
        self.G.add_nodes_from([0, 1])
        self.handles: list[tuple[int, int, int]] = []  # (handle, u, v)

    @rule()
    def add_node(self):
        if self.n < MAX_NODES:
            self.G.add_node(self.n)
            self.n += 1

    @rule(data=st.data())
    def add_edge(self, data):
        u = data.draw(st.integers(0, self.n - 1))
        v = data.draw(st.integers(0, self.n - 1))
        if u == v:
            return
        cap = data.draw(st.integers(0, 15))
        handle = self.net.add_edge(u, v, cap)
        self.handles.append((handle, u, v))
        if self.G.has_edge(u, v):
            self.G[u][v]["capacity"] += cap
        else:
            self.G.add_edge(u, v, capacity=cap)

    @rule(data=st.data())
    def reconfigure_capacity(self, data):
        if not self.handles:
            return
        handle, u, v = data.draw(st.sampled_from(self.handles))
        old = self.net.capacity(handle)
        new = data.draw(st.integers(0, 15))
        self.net.set_capacity(handle, new)
        self.G[u][v]["capacity"] += new - old

    @invariant()
    def flows_match(self):
        ours = self.net.max_flow(0, 1).value
        theirs = (
            nx.maximum_flow_value(self.G, 0, 1)
            if self.G.number_of_edges()
            else 0
        )
        assert ours == theirs


DinicVsNetworkx.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestDinicStateful = DinicVsNetworkx.TestCase


@st.composite
def integral_instances(draw, max_n=6, max_t=8, max_len=3):
    jobs = []
    for i in range(draw(st.integers(1, max_n))):
        p = draw(st.integers(1, max_len))
        r = draw(st.integers(0, max_t - p))
        d = draw(st.integers(r + p, max_t))
        jobs.append(Job(r, d, p, id=i))
    return Instance(tuple(jobs))


def networkx_value(instance, g, slots, jobs):
    """Max flow of the Figure-2 network restricted to ``jobs``."""
    G = nx.DiGraph()
    G.add_nodes_from(["s", "t"])
    for job in instance.jobs:
        if job.id in jobs:
            G.add_edge("s", ("j", job.id), capacity=job.integral_length())
            for t in job.feasible_slots():
                G.add_edge(("j", job.id), ("t", t), capacity=1)
    for t in slots:
        G.add_edge(("t", t), "t", capacity=g)
    return nx.maximum_flow_value(G, "s", "t")


class WarmOracleVsCold(RuleBasedStateMachine):
    @initialize(instance=integral_instances(), g=st.integers(1, 3))
    def build(self, instance, g):
        self.instance, self.g = instance, g
        self.oracle = ActiveTimeFeasibility(instance, g)
        self.slots = set(range(1, instance.horizon + 1))
        self.by_deadline = [
            j.id
            for j in sorted(instance.jobs, key=lambda j: j.integral_window()[1])
        ]
        self.k = len(self.by_deadline)  # length of the job prefix

    @rule(data=st.data())
    def open_slot(self, data):
        closed = sorted(set(range(1, self.instance.horizon + 1)) - self.slots)
        if closed:
            self.slots.add(data.draw(st.sampled_from(closed)))

    @rule(data=st.data())
    def close_slot(self, data):
        if self.slots:
            self.slots.discard(data.draw(st.sampled_from(sorted(self.slots))))

    @rule(step=st.integers(1, 3))
    def grow_prefix(self, step):
        self.k = min(len(self.by_deadline), self.k + step)

    @rule(step=st.integers(1, 3))
    def shrink_prefix(self, step):
        self.k = max(0, self.k - step)

    @invariant()
    def warm_matches_cold_and_networkx(self):
        jobs = self.by_deadline[: self.k]
        warm = self.oracle.max_flow_value(self.slots, jobs=jobs)
        fresh = ActiveTimeFeasibility(self.instance, self.g)
        assert warm == fresh.max_flow_value(self.slots, jobs=jobs)
        assert warm == networkx_value(self.instance, self.g, self.slots, jobs)

        prefix = Instance(tuple(j for j in self.instance.jobs if j.id in jobs))
        assignment = self.oracle.assignment(self.slots, jobs=jobs)
        assert (assignment is not None) == (warm == prefix.total_length)
        if assignment is not None:
            ActiveTimeSchedule(
                instance=prefix,
                g=self.g,
                active_slots=tuple(sorted(self.slots)),
                assignment={jid: tuple(ts) for jid, ts in assignment.items()},
            ).verify()


WarmOracleVsCold.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestWarmOracleStateful = WarmOracleVsCold.TestCase
