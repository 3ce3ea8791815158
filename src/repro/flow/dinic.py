"""Maximum flow via Dinic's algorithm, implemented from scratch.

The active-time algorithms repeatedly answer the question "given a set of
active slots, can all jobs be feasibly assigned?"  The paper reduces this to a
max-flow computation on the bipartite network ``G_feas`` (Figure 2).  Those
feasibility probes dominate the running time of both the minimal-feasible
3-approximation and the LP-rounding 2-approximation, so the solver here is
tuned for repeated solves on small-to-medium networks:

* adjacency is stored in flat ``list`` arrays (edge-struct-of-arrays layout),
* BFS level graph + iterative DFS blocking flow (no recursion limits),
* integer capacities throughout, so the returned flow is integral — the
  property the rounding proof leans on ("by integrality of flow"),
* :meth:`Dinic.add_edges` builds a whole network in one call,
* flows persist between solves: :meth:`Dinic.augment` grows the flow already
  routed to a maximum one, so a caller that changes a few capacities (and
  cancels the flow above them with :meth:`Dinic.push`) re-solves from its
  previous answer; :meth:`Dinic.max_flow` is a reset plus one ``augment``.
  A caller that knows short paths likely to have room can route along them
  first with :meth:`Dinic.push_greedily`.

Dinic's algorithm runs in ``O(V^2 E)`` in general and ``O(E sqrt(V))`` on unit
bipartite networks, far better than needed at the instance sizes the paper's
experiments require.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["Dinic", "MaxFlowResult"]


class MaxFlowResult:
    """Outcome of a max-flow computation.

    Attributes
    ----------
    value:
        The maximum flow value.
    flows:
        Flow on each edge, indexed by the handle returned by
        :meth:`Dinic.add_edge`.
    """

    __slots__ = ("value", "flows")

    def __init__(self, value: int, flows: list[int]):
        self.value = value
        self.flows = flows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MaxFlowResult(value={self.value})"


class Dinic:
    """A reusable max-flow network.

    Typical usage::

        net = Dinic(n_nodes)
        e = net.add_edge(u, v, capacity)
        result = net.max_flow(source, sink)
        result.flows[e]     # flow routed on that edge

    ``max_flow`` may be called again after :meth:`set_capacity` updates; it
    resets all flows first.  :meth:`augment` instead continues from the flow
    left by the previous solve.
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 0:
            raise ValueError("node count must be non-negative")
        self.n = n_nodes
        # Struct-of-arrays edge store: edge i has endpoint head[i],
        # remaining capacity cap[i]; edge i^1 is its residual twin.
        self._head: list[int] = []
        self._cap: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self._orig_cap: list[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge ``u -> v``; returns an edge handle.

        The handle indexes :attr:`MaxFlowResult.flows` and is accepted by
        :meth:`set_capacity`.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"edge ({u}, {v}) out of range for {self.n} nodes")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        handle = len(self._head)
        self._head.append(v)
        self._cap.append(capacity)
        self._orig_cap.append(capacity)
        self._adj[u].append(handle)
        # residual twin
        self._head.append(u)
        self._cap.append(0)
        self._orig_cap.append(0)
        self._adj[v].append(handle + 1)
        return handle

    def add_edges(
        self, tails: ArrayLike, heads: ArrayLike, capacities: ArrayLike
    ) -> int:
        """Add the edges ``tails[k] -> heads[k]`` in one pass.

        Takes three equal-length integer sequences or arrays.  Returns the
        handle of the first edge; edge ``k`` gets handle ``first + 2 * k``,
        as ``k`` calls of :meth:`add_edge` in the same order would give, so
        the network is the same edge for edge, adjacency order included.
        """
        tails, heads, capacities = (
            np.asarray(a, dtype=np.int64).ravel()
            for a in (tails, heads, capacities)
        )
        m = len(tails)
        if len(heads) != m or len(capacities) != m:
            raise ValueError("tails, heads and capacities differ in length")
        first = len(self._head)
        if m == 0:
            return first
        ends = np.concatenate((tails, heads))
        if ends.min() < 0 or ends.max() >= self.n:
            raise IndexError(f"edge endpoint out of range for {self.n} nodes")
        if capacities.min() < 0:
            raise ValueError("capacity must be non-negative")
        # Half-edge i is forward edge i // 2 when i is even, its residual
        # twin when odd: the twin runs back from the head to the tail.
        owner = np.empty(2 * m, dtype=np.int64)
        owner[0::2], owner[1::2] = tails, heads
        head = np.empty(2 * m, dtype=np.int64)
        head[0::2], head[1::2] = heads, tails
        cap = np.zeros(2 * m, dtype=np.int64)
        cap[0::2] = capacities
        self._head.extend(head.tolist())
        self._cap.extend(cap.tolist())
        self._orig_cap.extend(cap.tolist())
        adj = self._adj
        for handle, u in enumerate(owner.tolist(), first):
            adj[u].append(handle)
        return first

    def set_capacity(self, handle: int, capacity: int) -> None:
        """Update the capacity of a previously added edge, keeping its flow.

        Lowering a capacity below the flow the edge carries is only allowed
        before :meth:`max_flow` (which resets every flow); before
        :meth:`augment`, cancel the excess with :meth:`push` first.
        """
        if handle % 2 != 0:
            raise ValueError("handles refer to forward edges (even indices)")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._cap[handle] += capacity - self._orig_cap[handle]
        self._orig_cap[handle] = capacity

    def capacity(self, handle: int) -> int:
        """Current configured capacity of an edge."""
        return self._orig_cap[handle]

    def flow(self, handle: int) -> int:
        """Flow currently routed on a forward edge."""
        return self._orig_cap[handle] - self._cap[handle]

    def push(self, path: Iterable[int], amount: int) -> None:
        """Route ``amount`` more units along a path of edge handles.

        A negative ``amount`` cancels flow.  The caller keeps the result a
        flow: conservation at inner nodes and ``0 <= flow <= capacity``.
        """
        cap = self._cap
        for e in path:
            cap[e] -= amount
            cap[e ^ 1] += amount

    def push_greedily(self, paths: Iterable[Sequence[int]], limit: int) -> int:
        """Route one unit along each path with room on every edge, in order.

        Stops once ``limit`` units are routed and returns how many were.
        Each path must run from the source to the sink; then every unit
        routed is an augmenting path, and :meth:`augment` can finish the
        flow to a maximum one.
        """
        cap = self._cap
        routed = 0
        for path in paths:
            if routed >= limit:
                break
            for e in path:
                if cap[e] <= 0:
                    break
            else:
                for e in path:
                    cap[e] -= 1
                    cap[e ^ 1] += 1
                routed += 1
        return routed

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def max_flow(self, source: int, sink: int) -> MaxFlowResult:
        """Compute a maximum ``source -> sink`` flow from scratch.

        Resets every flow to zero and then runs :meth:`augment`, so repeated
        calls (after :meth:`set_capacity` updates) are independent.
        """
        self._cap[:] = self._orig_cap
        total = self.augment(source, sink)
        flows = [
            self._orig_cap[e] - self._cap[e] if e % 2 == 0 else 0
            for e in range(len(self._cap))
        ]
        return MaxFlowResult(total, flows)

    def augment(self, source: int, sink: int, limit: int | None = None) -> int:
        """Augment the current flow towards a maximum one; returns the gain.

        Starts from the flow already routed (by earlier calls or
        :meth:`push`), so a caller that changed a few capacities re-solves
        from its previous maximum flow instead of from zero.  With ``limit``
        it stops once that many units were added, which spares the final
        search when the caller knows the value it needs.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        cap = self._cap
        head = self._head
        adj = self._adj
        n = self.n
        total = 0
        goal = float("inf") if limit is None else limit

        while total < goal:
            # --- BFS: level graph up to the sink's level ---------------
            level = [-1] * n
            level[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                if u == sink:
                    break
                next_level = level[u] + 1
                for e in adj[u]:
                    v = head[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = next_level
                        queue.append(v)
            if level[sink] < 0:
                break

            # --- DFS: blocking flow (iterative) -----------------------
            it = [0] * n
            while total < goal:
                pushed = self._dfs_push(source, sink, goal - total, level, it)
                if pushed == 0:
                    break
                total += pushed
        return total

    def _dfs_push(self, source, sink, bound, level, it):
        """One augmenting push of at most ``bound`` along the level graph."""
        cap, head, adj = self._cap, self._head, self._adj
        # path of (node, edge) frames
        stack: list[int] = [source]
        path_edges: list[int] = []
        while stack:
            u = stack[-1]
            if u == sink:
                # bottleneck along path_edges
                bottleneck = min(bound, min(cap[e] for e in path_edges))
                self.push(path_edges, bottleneck)
                return bottleneck
            advanced = False
            while it[u] < len(adj[u]):
                e = adj[u][it[u]]
                v = head[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    stack.append(v)
                    path_edges.append(e)
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                level[u] = -1  # dead end; prune
                stack.pop()
                if path_edges:
                    path_edges.pop()
                if stack:
                    it[stack[-1]] += 1
        return 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def min_cut_reachable(self, source: int) -> list[bool]:
        """After :meth:`max_flow`, nodes reachable in the residual graph.

        The returned mask defines the source side of a minimum cut.
        """
        seen = [False] * self.n
        seen[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for e in self._adj[u]:
                v = self._head[e]
                if self._cap[e] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen
