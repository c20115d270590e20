"""Maze routing over the site grid and the resonator crossing counter.

Crossings matter because each one needs an airbridge, and airbridges both
add loss and couple insufficiently detuned resonators (paper Section II-B).
The crossing counter charges every resonator's MST connection trace
(qubit → clusters → qubit) for the foreign blocks it passes over and the
other traces it properly intersects.  The router is a Lee/Dijkstra search
whose cost model charges heavily for stepping onto another resonator's
reserved blocks; the detailed placer uses it to lay a fresh corridor for
a ripped-up resonator inside its window.
"""

from repro.routing.maze import MazeRouter, RouteResult
from repro.routing.crossings import count_crossings, CrossingReport

__all__ = [
    "MazeRouter",
    "RouteResult",
    "count_crossings",
    "CrossingReport",
]
