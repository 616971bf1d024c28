"""Search techniques combined by the bandit tuner.

OpenTuner's strength is running an *ensemble* of techniques — random
search, greedy mutation (hill climbing), pattern search over individual
parameters — and shifting evaluations toward whichever technique has
been producing improvements.  Each technique here exposes a single
``propose`` method; the bandit in :mod:`repro.autotune.tuner` decides
which technique gets to propose next.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.autotune.space import UNROLL_CHOICES, VECTOR_CHOICES, ScheduleSpace
from repro.halide.schedule import Schedule


class Technique:
    """Base class of search techniques."""

    name = "technique"

    def propose(
        self,
        space: ScheduleSpace,
        best: Optional[Schedule],
        rng: random.Random,
    ) -> Schedule:
        raise NotImplementedError


class RandomSearch(Technique):
    """Propose uniformly random schedules."""

    name = "random"

    def propose(self, space: ScheduleSpace, best: Optional[Schedule], rng: random.Random) -> Schedule:
        return space.random_schedule(rng)


class GreedyMutation(Technique):
    """Propose single-coordinate mutations of the best schedule so far."""

    name = "greedy-mutation"

    def propose(self, space: ScheduleSpace, best: Optional[Schedule], rng: random.Random) -> Schedule:
        if best is None:
            return space.sensible_schedule()
        return space.mutate(best, rng)


class PatternSearch(Technique):
    """Sweep one parameter at a time around the incumbent (coordinate descent)."""

    name = "pattern-search"

    def __init__(self) -> None:
        self._queue: List[Schedule] = []

    def propose(self, space: ScheduleSpace, best: Optional[Schedule], rng: random.Random) -> Schedule:
        if best is None:
            return space.sensible_schedule()
        if not self._queue:
            self._queue = self._neighbours(space, best)
        return self._queue.pop() if self._queue else space.mutate(best, rng)

    def _neighbours(self, space: ScheduleSpace, best: Schedule) -> List[Schedule]:
        neighbours: List[Schedule] = []
        for width in VECTOR_CHOICES:
            if width != best.vector_width:
                neighbours.append(best.with_vectorize(width))
        for factor in UNROLL_CHOICES:
            if factor != best.unroll:
                neighbours.append(best.with_unroll(factor))
        tiles = list(best.tile_sizes or (0,) * space.dimensions)
        for dim in range(len(tiles)):
            for size in (0, 16, 32, 64):
                if tiles[dim] != size:
                    candidate = list(tiles)
                    candidate[dim] = size
                    neighbours.append(best.with_tiles(tuple(candidate)))
        for dim in range(space.dimensions):
            if best.parallel_dim != dim:
                neighbours.append(best.with_parallel(dim))
        order = list(best.dim_order or range(space.dimensions))
        for a in range(len(order) - 1):
            swapped = list(order)
            swapped[a], swapped[a + 1] = swapped[a + 1], swapped[a]
            if swapped != order:
                neighbours.append(best.with_order(tuple(swapped)))
        return neighbours


DEFAULT_TECHNIQUES: Tuple[Callable[[], Technique], ...] = (
    RandomSearch,
    GreedyMutation,
    PatternSearch,
)
