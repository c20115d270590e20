"""Site occupancy index for legalization (paper Section III-D).

Resonator legalization repeatedly asks "which free site is nearest to this
point?", and Algorithm 1's *adjacent available* set ``Baa`` asks whether
the 4-neighbours of a site are free.  Both are answered from occupancy
held in flat NumPy arrays (DREAMPlace-style), which also let the maze
router and the crossing counter probe/classify sites with O(1) array
reads and build whole-grid cost overlays with vectorized gathers:

* ``kind_flat``      — int8 per site: 0 free, 1 qubit macro, 2 wire block,
  3 other owner;
* ``owner_idx_flat`` — int32 per site: index into the owner interning
  table (``-1`` when free);
* ``res_idx_flat``   — int32 per site: interned resonator key for wire
  blocks (``-1`` otherwise).

Sites are flattened **column-major** (``flat = col * rows + row``) so that
ascending flat index matches ascending ``(col, row)`` tuple order — the
router relies on this to reproduce the exact tie-breaking of a tuple-keyed
Dijkstra.  These arrays are the only occupancy state: free-site queries
(``nearest_free``, ``free_sites``, ``num_free``) are vectorized scans of
``kind_flat``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Rect, SiteGrid
from repro.netlist.netlist import QuantumNetlist

#: ``kind`` codes stored per site.
KIND_FREE = 0
KIND_QUBIT = 1
KIND_BLOCK = 2
KIND_OTHER = 3


def _classify(owner):
    """``(kind, resonator_key)`` for an owner, mirroring the router's
    ``owner[0] == "q"`` / ``owner[0] == "b"`` discrimination."""
    try:
        tag = owner[0]
    except (TypeError, IndexError, KeyError):
        return KIND_OTHER, None
    if tag == "q":
        return KIND_QUBIT, None
    if tag == "b":
        try:
            return KIND_BLOCK, owner[1]
        except (TypeError, IndexError, KeyError):
            return KIND_OTHER, None
    return KIND_OTHER, None


class BinGrid:
    """Occupancy tracking + nearest-free-site queries over a site grid."""

    def __init__(self, grid: SiteGrid) -> None:
        self.grid = grid
        n = grid.num_sites
        self._kind = np.zeros(n, dtype=np.int8)
        self._owner_idx = np.full(n, -1, dtype=np.int32)
        self._res_idx = np.full(n, -1, dtype=np.int32)
        self._owners = []  # owner_idx -> owner object
        self._owner_ids = {}  # owner -> owner_idx (hashable owners only)
        self._res_keys = []  # res_idx -> resonator key
        self._res_ids = {}  # resonator key -> res_idx

    @classmethod
    def of_layout(cls, netlist: QuantumNetlist, grid: SiteGrid) -> "BinGrid":
        """The occupancy of a legal layout, rebuilt from its positions.

        A legal layout determines its occupancy completely: qubit macros
        cover the sites under their rectangles and each wire block sits on
        exactly one site.  ``occupy``/``occupy_rect`` raise on conflicts, so
        a non-legal snapshot fails loudly instead of silently mis-counting
        crossings.
        """
        bins = cls(grid)
        for qubit in netlist.qubits:
            bins.occupy_rect(qubit.rect, qubit.node_id)
        for block in netlist.wire_blocks:
            bins.occupy(*grid.site_of(block.center), block.node_id)
        return bins

    # -- flat-array views --------------------------------------------------
    @property
    def kind_flat(self) -> np.ndarray:
        """Per-site kind codes (treat as read-only)."""
        return self._kind

    @property
    def owner_idx_flat(self) -> np.ndarray:
        """Per-site interned owner indices, -1 when free (read-only)."""
        return self._owner_idx

    @property
    def res_idx_flat(self) -> np.ndarray:
        """Per-site interned resonator-key indices (read-only)."""
        return self._res_idx

    @property
    def owners(self) -> list:
        """Owner interning table: ``owners[owner_idx_flat[i]]`` is the owner."""
        return self._owners

    def res_key_index(self, key) -> int:
        """Interned index of a resonator key, or -1 if never seen."""
        try:
            return self._res_ids.get(key, -1)
        except TypeError:
            return -1

    def _intern_owner(self, owner) -> int:
        try:
            idx = self._owner_ids.get(owner)
        except TypeError:  # unhashable owner: store without dedup
            idx = None
            self._owners.append(owner)
            return len(self._owners) - 1
        if idx is None:
            idx = len(self._owners)
            self._owners.append(owner)
            self._owner_ids[owner] = idx
        return idx

    def _intern_res_key(self, key) -> int:
        try:
            idx = self._res_ids.get(key)
        except TypeError:
            return -1
        if idx is None:
            idx = len(self._res_keys)
            self._res_keys.append(key)
            self._res_ids[key] = idx
        return idx

    # -- occupancy ---------------------------------------------------------
    def is_free(self, col: int, row: int) -> bool:
        """True when the site exists and is unoccupied."""
        if not self.grid.in_grid(col, row):
            return False
        return self._kind[col * self.grid.rows + row] == KIND_FREE

    def occupant(self, col: int, row: int):
        """Whatever was stored by :meth:`occupy`, or None."""
        if not self.grid.in_grid(col, row):
            return None
        idx = self._owner_idx[col * self.grid.rows + row]
        return None if idx < 0 else self._owners[idx]

    def occupy(self, col: int, row: int, owner) -> None:
        """Mark a free site as occupied by ``owner``."""
        if not self.grid.in_grid(col, row):
            raise IndexError(f"site ({col}, {row}) outside grid")
        flat = self.grid.flat_index(col, row)
        if self._kind[flat] != KIND_FREE:
            raise ValueError(f"site ({col}, {row}) already occupied")
        kind, res_key = _classify(owner)
        self._kind[flat] = kind
        self._owner_idx[flat] = self._intern_owner(owner)
        if kind == KIND_BLOCK:
            self._res_idx[flat] = self._intern_res_key(res_key)

    def release(self, col: int, row: int) -> None:
        """Return an occupied site to the free pool."""
        if not self.grid.in_grid(col, row) or self.is_free(col, row):
            raise ValueError(f"site ({col}, {row}) is not occupied")
        flat = self.grid.flat_index(col, row)
        self._kind[flat] = KIND_FREE
        self._owner_idx[flat] = -1
        self._res_idx[flat] = -1

    def occupy_rect(self, rect: Rect, owner) -> list:
        """Occupy every site covered by ``rect`` (used for qubit macros).

        The site block is validated and written as 2-D array slices; the
        whole rect is occupied atomically (nothing is written when any
        covered site is already taken).
        """
        sites = self.grid.sites_covered(rect)
        if not sites:
            return sites
        rows = self.grid.rows
        lo_col, lo_row = sites[0]
        hi_col, hi_row = sites[-1]
        kind2d = self._kind.reshape(self.grid.cols, rows)
        view = kind2d[lo_col : hi_col + 1, lo_row : hi_row + 1]
        if view.any():
            for col, row in sites:
                if self._kind[col * rows + row] != KIND_FREE:
                    raise ValueError(f"site ({col}, {row}) already occupied")
        kind, res_key = _classify(owner)
        owner_idx = self._intern_owner(owner)
        res_idx = self._intern_res_key(res_key) if kind == KIND_BLOCK else -1
        view[:, :] = kind
        owner2d = self._owner_idx.reshape(self.grid.cols, rows)
        owner2d[lo_col : hi_col + 1, lo_row : hi_row + 1] = owner_idx
        res2d = self._res_idx.reshape(self.grid.cols, rows)
        res2d[lo_col : hi_col + 1, lo_row : hi_row + 1] = res_idx
        return sites

    @property
    def num_free(self) -> int:
        """Number of free sites remaining."""
        return int(np.count_nonzero(self._kind == KIND_FREE))

    def _free_rows_cols(self) -> tuple:
        """``(rows, cols)`` arrays of the free sites, in row-major order."""
        by_row = self._kind.reshape(self.grid.cols, self.grid.rows).T
        return np.nonzero(by_row == KIND_FREE)

    def free_sites(self) -> list:
        """All free sites (row-major); O(sites), for tests and small grids."""
        rows, cols = self._free_rows_cols()
        return list(zip(cols.tolist(), rows.tolist()))

    # -- queries -----------------------------------------------------------
    def free_cols_in_row(self, row: int) -> np.ndarray:
        """Ascending free columns of ``row``, read from the flat arrays.

        One vectorized scan of the column-major ``kind_flat`` stride for
        the row.
        """
        return np.flatnonzero(self._kind[row :: self.grid.rows] == KIND_FREE)

    def first_free_col_at_or_after(self, row: int, col: int):
        """Smallest free column ``>= col`` in ``row``, or None."""
        row_kinds = self._kind[row :: self.grid.rows]
        start = max(col, 0)
        offsets = np.flatnonzero(row_kinds[start:] == KIND_FREE)
        if offsets.size == 0:
            return None
        return start + int(offsets[0])

    def nearest_free(self, col: int, row: int) -> tuple:
        """Free site minimizing Euclidean site distance to ``(col, row)``.

        Ties break toward smaller row, then smaller column, making the
        scan deterministic.  Returns None when the grid is full.
        """
        rows, cols = self._free_rows_cols()
        if rows.size == 0:
            return None
        # The sites are in row-major order and argmin returns the first
        # minimum, so distance ties go to the smaller row, then column.
        best = int(np.argmin((cols - col) ** 2 + (rows - row) ** 2))
        return (int(cols[best]), int(rows[best]))

    def free_neighbors(self, col: int, row: int) -> list:
        """Free 4-neighbours of a site — the ``f(·)`` update of Algorithm 1."""
        return [
            (c, r) for c, r in self.grid.neighbors4(col, row) if self.is_free(c, r)
        ]
