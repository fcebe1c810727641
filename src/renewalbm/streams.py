"""Reproducible random stream derivation.

Every simulation consumes a generator derived from (master seed, role,
scale index, replication index) through SeedSequence spawn keys, so
replications are independent tasks that can run in any order, on any number
of workers, and still reproduce bit for bit. A coupled realization splits
its generator into one child stream per drawn quantity (child_streams), so
a step's draws depend neither on how they are blocked nor on the other
quantities.
"""

from __future__ import annotations

import numpy as np

# Role tags keep streams for different experiment kinds from colliding when
# they share (n, rep) coordinates.
ROLE_PATH = 0
ROLE_COUPLE = 1
ROLE_RATE = 2
ROLE_TRACE = 3
ROLE_GOF_TERMINAL = 4
ROLE_GOF_COV = 5


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for (master_seed, *key). Distinct keys give independent streams."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def child_streams(rng: np.random.Generator) -> list[np.random.Generator]:
    """Four independent child streams of rng, seeded from two of its draws:
    levels, exit uniforms, signs and grid walk, in that order.

    Every draw the package makes from a child (uniforms, normals,
    exponentials, integers) continues the child's sequence whatever the
    sizes of the calls, so blocking never moves a bit.
    """
    seed = np.random.SeedSequence(rng.integers(0, 1 << 63, size=2))
    return [np.random.default_rng(child) for child in seed.spawn(4)]
