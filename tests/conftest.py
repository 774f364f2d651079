"""Helpers shared by several test modules."""

import random

from skewdyn import BiPoly, SkewProduct, UniPoly, classify


def random_maps(seed, per_case):
    """Seeded random maps, per_case of each of Cases 1-4, half with a p tail."""
    rng = random.Random(seed)
    grid = [(i, j) for i in range(6) for j in range(6) if i + j >= 2 or (i, j) == (1, 0)]
    found = {case: [] for case in (1, 2, 3, 4)}
    while any(len(maps) < per_case for maps in found.values()):
        delta = rng.randint(1, 4)
        p = {delta: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))}
        if rng.random() < 0.5:
            p[delta + rng.randint(1, 2)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        support = rng.sample(grid, rng.randint(1, 4))
        try:
            f = SkewProduct(UniPoly(p), BiPoly({
                ij: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for ij in support}))
            case = classify(f).case.value
        except ValueError:
            continue
        if len(found[case]) < per_case:
            found[case].append(f)
    return [f for maps in found.values() for f in maps]
