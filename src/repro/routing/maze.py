"""Lee-style maze router (Dijkstra over the site grid).

The router connects a set of source sites to a set of target sites under a
per-site cost model:

* free sites cost ``step_cost`` (default 1);
* sites reserved by the routing resonator's own blocks cost
  ``own_cost`` (default 0 — moving inside your own reserved area is free);
* sites reserved by *other* resonators cost ``crossing_cost`` — an
  airbridge (default 12, high enough that routes only bridge when there is
  no way around);
* qubit macro sites are impassable (you cannot bridge over a transmon),
  except that target qubits are reached by touching any site 4-adjacent to
  their footprint.

Used both to count crossings on finished layouts and as the optimizer
``M(W)`` inside the detailed placer (Algorithm 2).

The search runs over **flat site indices** (Enola-style array routing):
per-site entry costs are precomputed into one vectorized cost array from
the :class:`~repro.legalization.bins.BinGrid` occupancy arrays, and the
Dijkstra state (``dist`` / ``prev`` / ``visited``) lives in preallocated
ndarrays reused across routes.  The flat index is column-major
(``col * rows + row``), which makes ascending index order coincide with
ascending ``(col, row)`` tuple order — so heap tie-breaking, and therefore
the returned path, is *identical* to the historical tuple-keyed
implementation (the parity tests in ``tests/routing`` hold both to the
same reference).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.legalization.bins import KIND_BLOCK, KIND_QUBIT, BinGrid


@dataclass
class RouteResult:
    """A routed path and its cost breakdown."""

    path: list  # sites from source to target, inclusive
    cost: float
    crossings: list  # foreign block node-ids stepped on, in path order

    @property
    def num_crossings(self) -> int:
        """Number of airbridges the route needs."""
        return len(self.crossings)


class MazeRouter:
    """Dijkstra router over a :class:`~repro.legalization.bins.BinGrid`.

    One instance can be reused across many routes; its Dijkstra scratch
    buffers are allocated once and reset per call.
    """

    def __init__(
        self,
        bins: BinGrid,
        step_cost: float = 1.0,
        own_cost: float = 0.0,
        crossing_cost: float = 12.0,
    ) -> None:
        if crossing_cost <= step_cost:
            raise ValueError("crossing_cost must exceed step_cost")
        self.bins = bins
        self.step_cost = step_cost
        self.own_cost = own_cost
        self.crossing_cost = crossing_cost
        n = bins.grid.num_sites
        self._cost = np.empty(n, dtype=np.float64)
        self._dist = np.empty(n, dtype=np.float64)
        self._prev = np.empty(n, dtype=np.int32)
        self._visited = np.empty(n, dtype=bool)
        self._is_target = np.empty(n, dtype=bool)

    def _site_cost(self, site: tuple, own_key: tuple) -> float:
        """Cost of *entering* a site; None when impassable.

        Retained as the scalar reference cost model (property tests diff
        the vectorized cost array against it).
        """
        owner = self.bins.occupant(*site)
        if owner is None:
            return self.step_cost
        if owner[0] == "q":
            return None
        if owner[0] == "b" and owner[1] == own_key:
            return self.own_cost
        return self.crossing_cost

    def _build_cost(self, own_key: tuple, extra_cost) -> np.ndarray:
        """Vectorized per-site entry cost; +inf marks impassable sites."""
        bins = self.bins
        kind = bins.kind_flat
        cost = self._cost
        cost[:] = self.step_cost
        cost[kind == KIND_QUBIT] = np.inf
        blocks = kind == KIND_BLOCK
        own_idx = bins.res_key_index(own_key)
        own = blocks & (bins.res_idx_flat == own_idx) if own_idx >= 0 else None
        cost[blocks] = self.crossing_cost
        cost[kind > KIND_BLOCK] = self.crossing_cost
        if own is not None:
            cost[own] = self.own_cost
        if extra_cost is not None:
            cost += extra_cost
        return cost

    def route(
        self,
        sources: set,
        targets: set,
        own_key: tuple,
        window=None,
        extra_cost=None,
    ) -> RouteResult:
        """Cheapest path from any source site to any target site.

        ``own_key`` is the routing resonator's ``(qi, qj)`` key (its own
        blocks are traversed at ``own_cost``).  ``window`` optionally
        restricts the search to a site-rect ``(lo_col, lo_row, hi_col,
        hi_row)`` inclusive.  ``extra_cost`` is an optional per-site entry
        cost added on top, a flat overlay array indexed by ``col * rows +
        row`` (the detailed placer's frequency overlay).  Returns None
        when no route exists.
        """
        if not sources or not targets:
            return None
        grid = self.bins.grid
        cols, rows = grid.cols, grid.rows
        n = cols * rows

        cost = self._build_cost(own_key, extra_cost)
        is_target = self._is_target
        is_target[:] = False
        for col, row in targets:
            if grid.in_grid(col, row):
                is_target[grid.flat_index(col, row)] = True
        # Targets are always enterable at plain step cost (no overlay).
        cost[is_target] = self.step_cost
        if window is not None:
            lo_col, lo_row, hi_col, hi_row = window
            cost2d = cost.reshape(cols, rows)
            cost2d[:lo_col, :] = np.inf
            cost2d[hi_col + 1 :, :] = np.inf
            cost2d[:, :lo_row] = np.inf
            cost2d[:, hi_row + 1 :] = np.inf

        dist = self._dist
        dist[:] = np.inf
        prev = self._prev
        prev[:] = -1
        visited = self._visited
        visited[:] = False

        heap = []
        for site in sources:
            if not grid.in_grid(*site):
                continue
            if window is not None and not _in_window(site, window):
                continue
            flat = site[0] * rows + site[1]
            dist[flat] = 0.0
            heap.append((0.0, flat))
        heapq.heapify(heap)

        found = -1
        last_col = n - rows
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d, i = pop(heap)
            if visited[i]:
                continue
            visited[i] = True
            if is_target[i]:
                found = i
                break
            # Neighbors in (col-1, col+1, row-1, row+1) order.
            if i >= rows:
                j = i - rows
                if not visited[j]:
                    nd = d + cost[j]
                    if nd < dist[j]:
                        dist[j] = nd
                        prev[j] = i
                        push(heap, (nd, j))
            if i < last_col:
                j = i + rows
                if not visited[j]:
                    nd = d + cost[j]
                    if nd < dist[j]:
                        dist[j] = nd
                        prev[j] = i
                        push(heap, (nd, j))
            row = i % rows
            if row > 0:
                j = i - 1
                if not visited[j]:
                    nd = d + cost[j]
                    if nd < dist[j]:
                        dist[j] = nd
                        prev[j] = i
                        push(heap, (nd, j))
            if row < rows - 1:
                j = i + 1
                if not visited[j]:
                    nd = d + cost[j]
                    if nd < dist[j]:
                        dist[j] = nd
                        prev[j] = i
                        push(heap, (nd, j))

        if found < 0:
            return None
        flat_path = [found]
        while prev[flat_path[-1]] >= 0:
            flat_path.append(int(prev[flat_path[-1]]))
        flat_path.reverse()
        path = [divmod(i, rows) for i in flat_path]
        crossings = []
        for site in path:
            owner = self.bins.occupant(*site)
            if owner is not None and owner[0] == "b" and owner[1] != own_key:
                crossings.append(owner)
        return RouteResult(path=path, cost=float(dist[found]), crossings=crossings)


def _in_window(site: tuple, window: tuple) -> bool:
    lo_col, lo_row, hi_col, hi_row = window
    return lo_col <= site[0] <= hi_col and lo_row <= site[1] <= hi_row
