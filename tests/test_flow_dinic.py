"""Unit tests for the Dinic max-flow solver, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.flow import Dinic


class TestConstruction:
    def test_add_edge_returns_even_handles(self):
        net = Dinic(3)
        assert net.add_edge(0, 1, 5) == 0
        assert net.add_edge(1, 2, 5) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            Dinic(2).add_edge(0, 5, 1)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            Dinic(2).add_edge(0, 1, -1)

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError):
            Dinic(-1)


class TestBulkConstruction:
    @staticmethod
    def random_edges(rng, n):
        m = int(rng.integers(n, 4 * n))
        tails = rng.integers(0, n, m).tolist()
        heads = rng.integers(0, n, m).tolist()
        caps = rng.integers(0, 9, m).tolist()
        return tails, heads, caps

    @pytest.mark.parametrize("seed", range(8))
    def test_same_network_as_one_call_per_edge(self, seed):
        """Same handles, and the same maximum flow edge for edge: the
        search follows adjacency order, so equal flows need equal order."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        tails, heads, caps = self.random_edges(rng, n)
        one, bulk = Dinic(n), Dinic(n)
        handles = [one.add_edge(u, v, c) for u, v, c in zip(tails, heads, caps)]
        assert one.add_edge(0, n - 1, 1) == 2 * len(tails)
        assert bulk.add_edges(tails, heads, caps) == 0
        assert bulk.add_edges([0], [n - 1], [1]) == 2 * len(tails)
        assert [bulk.capacity(h) for h in handles] == caps
        a, b = one.max_flow(0, n - 1), bulk.max_flow(0, n - 1)
        assert (a.value, a.flows) == (b.value, b.flows)

    def test_accepts_arrays_and_empty_input(self):
        net = Dinic(3)
        assert net.add_edges([], [], []) == 0
        first = net.add_edges(np.array([0, 1]), np.array([1, 2]), np.array([4, 3]))
        assert first == 0 and net.max_flow(0, 2).value == 3

    def test_rejects_bad_input(self):
        with pytest.raises(IndexError):
            Dinic(2).add_edges([0], [5], [1])
        with pytest.raises(IndexError):
            Dinic(2).add_edges([-1], [1], [1])
        with pytest.raises(ValueError):
            Dinic(2).add_edges([0], [1], [-1])
        with pytest.raises(ValueError):
            Dinic(2).add_edges([0, 1], [1], [1, 1])


class TestPushGreedily:
    def test_routes_along_paths_with_room_up_to_the_limit(self):
        net = Dinic(4)  # source 0 -> 1 -> sink 3, directly or through 2
        a = net.add_edge(0, 1, 3)
        b = net.add_edge(1, 2, 1)
        c = net.add_edge(2, 3, 0)  # closed: the path through it has no room
        d = net.add_edge(1, 3, 5)
        assert net.push_greedily([(a, b, c), (a, d), (a, d)], 5) == 2
        assert net.flow(a) == net.flow(d) == 2 and net.flow(b) == 0
        assert net.push_greedily([(a, d)] * 3, 0) == 0
        assert net.push_greedily([(a, d)] * 3, 3) == 1  # a has 1 unit left
        assert net.augment(0, 3) == 0


class TestSimpleFlows:
    def test_single_edge(self):
        net = Dinic(2)
        net.add_edge(0, 1, 7)
        assert net.max_flow(0, 1).value == 7

    def test_series_bottleneck(self):
        net = Dinic(3)
        net.add_edge(0, 1, 10)
        net.add_edge(1, 2, 3)
        assert net.max_flow(0, 2).value == 3

    def test_parallel_paths(self):
        net = Dinic(4)
        net.add_edge(0, 1, 2)
        net.add_edge(1, 3, 2)
        net.add_edge(0, 2, 3)
        net.add_edge(2, 3, 3)
        assert net.max_flow(0, 3).value == 5

    def test_no_path(self):
        net = Dinic(3)
        net.add_edge(0, 1, 5)
        assert net.max_flow(0, 2).value == 0

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError):
            Dinic(2).max_flow(1, 1)

    def test_requires_residual_routing(self):
        # Classic diamond where a greedy path must be partially undone.
        net = Dinic(4)
        net.add_edge(0, 1, 1)
        net.add_edge(0, 2, 1)
        net.add_edge(1, 2, 1)
        net.add_edge(1, 3, 1)
        net.add_edge(2, 3, 1)
        assert net.max_flow(0, 3).value == 2


class TestFlowsOutput:
    def test_edge_flows_conserve(self):
        net = Dinic(4)
        e1 = net.add_edge(0, 1, 4)
        e2 = net.add_edge(1, 2, 2)
        e3 = net.add_edge(1, 3, 2)
        e4 = net.add_edge(2, 3, 2)
        res = net.max_flow(0, 3)
        assert res.value == 4
        assert res.flows[e1] == 4
        assert res.flows[e2] == 2
        assert res.flows[e3] == 2
        assert res.flows[e4] == 2

    def test_flows_within_capacity(self):
        net = Dinic(3)
        e = net.add_edge(0, 1, 5)
        net.add_edge(1, 2, 3)
        res = net.max_flow(0, 2)
        assert 0 <= res.flows[e] <= 5


class TestReuse:
    def test_set_capacity_and_resolve(self):
        net = Dinic(2)
        e = net.add_edge(0, 1, 5)
        assert net.max_flow(0, 1).value == 5
        net.set_capacity(e, 2)
        assert net.max_flow(0, 1).value == 2
        net.set_capacity(e, 9)
        assert net.max_flow(0, 1).value == 9

    def test_set_capacity_rejects_odd_handle(self):
        net = Dinic(2)
        net.add_edge(0, 1, 5)
        with pytest.raises(ValueError):
            net.set_capacity(1, 3)

    def test_capacity_getter(self):
        net = Dinic(2)
        e = net.add_edge(0, 1, 5)
        assert net.capacity(e) == 5


class TestAugment:
    def test_augment_continues_from_the_current_flow(self):
        net = Dinic(3)
        a = net.add_edge(0, 1, 4)
        b = net.add_edge(1, 2, 2)
        assert net.augment(0, 2) == 2
        net.set_capacity(b, 3)  # keeps the 2 units already routed
        assert net.flow(b) == 2
        assert net.augment(0, 2) == 1
        assert net.flow(a) == net.flow(b) == 3

    def test_limit_stops_early(self):
        net = Dinic(2)
        e = net.add_edge(0, 1, 9)
        assert net.augment(0, 1, limit=4) == 4
        assert net.flow(e) == 4
        assert net.augment(0, 1, limit=0) == 0

    def test_push_cancels_flow_along_a_path(self):
        net = Dinic(3)
        a = net.add_edge(0, 1, 3)
        b = net.add_edge(1, 2, 3)
        assert net.augment(0, 2) == 3
        net.push((a, b), -2)
        assert net.flow(a) == net.flow(b) == 1
        net.set_capacity(b, 1)
        assert net.augment(0, 2) == 0

    def test_max_flow_resets_what_augment_routed(self):
        net = Dinic(2)
        e = net.add_edge(0, 1, 5)
        net.augment(0, 1, limit=2)
        result = net.max_flow(0, 1)
        assert result.value == 5 and result.flows[e] == 5


class TestMinCut:
    def test_reachable_side(self):
        net = Dinic(4)
        net.add_edge(0, 1, 10)
        net.add_edge(1, 2, 1)  # bottleneck
        net.add_edge(2, 3, 10)
        net.max_flow(0, 3)
        seen = net.min_cut_reachable(0)
        assert seen[0] and seen[1]
        assert not seen[2] and not seen[3]


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_match(self, seed, rng):
        n = int(rng.integers(4, 15))
        net = Dinic(n)
        G = nx.DiGraph()
        G.add_nodes_from(range(n))
        m = int(rng.integers(n, 4 * n))
        for _ in range(m):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            c = int(rng.integers(1, 20))
            net.add_edge(u, v, c)
            if G.has_edge(u, v):
                G[u][v]["capacity"] += c
            else:
                G.add_edge(u, v, capacity=c)
        expected = nx.maximum_flow_value(G, 0, n - 1) if G.number_of_edges() else 0
        assert net.max_flow(0, n - 1).value == expected
