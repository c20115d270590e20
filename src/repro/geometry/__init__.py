"""Planar geometry primitives used throughout the layout engines.

Everything in qGDP lives on a rectilinear substrate: qubits and resonator
wire blocks are axis-aligned rectangles, legalization snaps them to a site
grid, and the crosstalk metrics reason about adjacency lengths and centroid
distances between rectangles.  This package provides those primitives with
no dependency on the rest of the library.
"""

from repro.geometry.point import Point, manhattan, euclidean
from repro.geometry.rect import (
    Rect,
    overlap_area,
    overlap_length_x,
    overlap_length_y,
    adjacency_length,
    gap_between,
    near_pairs,
    rect_bounds,
)
from repro.geometry.grid import SiteGrid
from repro.geometry.segments import segments_intersect, count_pairwise_crossings

__all__ = [
    "Point",
    "manhattan",
    "euclidean",
    "Rect",
    "overlap_area",
    "overlap_length_x",
    "overlap_length_y",
    "adjacency_length",
    "gap_between",
    "near_pairs",
    "rect_bounds",
    "SiteGrid",
    "segments_intersect",
    "count_pairwise_crossings",
]
