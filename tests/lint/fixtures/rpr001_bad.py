"""RPR001 fixture: every statement below is a nondeterminism finding."""

import random
import time

import numpy as np


def unseeded_draws():
    a = random.random()  # unseeded module-level RNG
    rng = random.Random()  # unseeded instance
    b = np.random.rand(3)  # legacy global numpy RNG
    gen = np.random.default_rng()  # no seed argument
    return a, rng, b, gen


def wall_clock():
    return time.time()  # wall-clock read


def set_order():
    total = 0
    for value in {3, 1, 2}:  # hash-table iteration order
        total = total * 10 + value
    ordered = [v for v in {9, 8}]  # comprehension keeps set order
    return total, ordered


def identity_memo(memo, graph, a, b):
    return memo.get((id(graph), a, b))  # ids are reused after a free
