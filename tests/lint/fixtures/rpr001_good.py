"""RPR001 fixture: deterministic counterparts — zero findings."""

import random
import time

import numpy as np


def seeded_draws(seed):
    rng = random.Random(seed)  # explicit seed
    gen = np.random.default_rng(seed)  # explicit seed
    return rng.random(), gen.random()


def monotonic_timing():
    return time.perf_counter()  # timing, not wall clock


def ordered_sets(items):
    for value in sorted({3, 1, 2}):  # sorted before iterating
        items.append(value)
    total = sum(v for v in {9, 8})  # order-insensitive reduction
    biggest = max({4, 7})
    as_set = {v * 2 for v in {1, 2}}  # set-to-set stays unordered
    return items, total, biggest, as_set


def memo_on_the_object(graph, a, b):
    return graph.graph.get("paths", {}).get((a, b))  # no identity key
