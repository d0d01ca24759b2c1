"""Blame-based bus factor by simulated developer departure.

For group sizes g = 1, 2, ... draw random g-subsets of the developers
owning lines at the analyzed revision; the bus factor is the first g
at which some drawn subset's departure abandons at least half of the
files (a file counts as abandoned once 90% of its lines belonged to
departed developers). An exhaustive mode enumerates every subset and
therefore yields the exact minimum g.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Iterable, Sequence

from .errors import EmptySnapshot
from .identity import DeveloperId, IdentityMap
from .records import BlameSnapshot, Value

class RigConfig(Value):
    max_group_size: int = 200
    samples_per_size: int = 1000
    seed: int = 0
    line_abandon_fraction: float = 0.90
    file_abandon_fraction: float = 0.50
    exhaustive: bool = False

    def _checked(self):
        if self.max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        if self.samples_per_size < 1:
            raise ValueError("samples_per_size must be >= 1")
        for name in ("line_abandon_fraction", "file_abandon_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        return self


class RigResult(Value):
    """Outcome of one run; bf_set is None when no subset up to
    max_group_size abandoned enough files."""
    bf_set: frozenset[DeveloperId] | None
    samples_evaluated: int
    abandoned_fraction_at_return: float

    @property
    def bus_factor(self) -> int | None:
        """Size of the departing group, None when none was found."""
        return None if self.bf_set is None else len(self.bf_set)


def _lines_needed(total: int, line_threshold: float) -> int:
    """Fewest departed lines n for which n / total >= line_threshold.

    The float quotient is monotone in n, so `gone >= need` is exactly
    the test `gone / total >= line_threshold`; with the threshold in
    (0, 1], need lies in [1, total].
    """
    need = int(line_threshold * total)
    while need / total < line_threshold:
        need += 1
    while (need - 1) / total >= line_threshold:
        need -= 1
    return need


class _Departures:
    """A snapshot indexed for departure tests.

    `population` lists the developers owning lines, in sort_key order;
    `owned[i]` holds (file, line count) for each file developer i owns
    lines of, and `need[file]` the lines whose departure abandons it.
    A departure then walks only the files its own developers touch.
    """

    def __init__(self, blame: BlameSnapshot, identity: IdentityMap,
                 line_threshold: float):
        if not 0.0 < line_threshold <= 1.0:
            raise ValueError("line_abandon_fraction must lie in (0, 1], "
                             f"got {line_threshold}")
        if not blame.files:
            raise EmptySnapshot("blame snapshot lists no files")
        owned: dict[DeveloperId, list[tuple[int, int]]] = {}
        self.need: list[int] = []
        for file, path in enumerate(sorted(blame.files)):
            owners = blame.files[path]
            if not owners:
                raise EmptySnapshot(f"blame snapshot lists {path!r} "
                                    "with no lines")
            counts: Counter[DeveloperId] = Counter()
            for author, n in owners.items():
                counts[identity.canonical(author)] += n
            for dev, n in counts.items():
                owned.setdefault(dev, []).append((file, n))
            self.need.append(_lines_needed(sum(owners.values()),
                                           line_threshold))
        self.population = sorted(owned, key=DeveloperId.sort_key)
        self.owned = [owned[dev] for dev in self.population]

    def fraction(self, departed: Iterable[int]) -> float:
        """Share of files abandoned when the developers at these
        distinct population positions leave."""
        gone: dict[int, int] = {}
        for i in departed:
            for file, n in self.owned[i]:
                gone[file] = gone.get(file, 0) + n
        need = self.need
        abandoned = sum(1 for file, n in gone.items() if n >= need[file])
        return abandoned / len(need)


def abandoned_file_fraction(blame: BlameSnapshot, identity: IdentityMap,
                            departed: Iterable[DeveloperId],
                            line_abandon_fraction: float = 0.90) -> float:
    """Fraction of files whose line ownership is at least
    line_abandon_fraction held by the departed set; the fraction must
    lie in (0, 1], as in RigConfig."""
    index = _Departures(blame, identity, line_abandon_fraction)
    position = {dev: i for i, dev in enumerate(index.population)}
    return index.fraction({position[dev] for dev in departed
                           if dev in position})


def _randbelow(rng: random.Random, n: int) -> int:
    """Uniform draw from [0, n) by rejection on getrandbits, so the
    consumed bit stream is fully specified by this module."""
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


def _sample_indexes(rng: random.Random, population: int, g: int) -> tuple[int, ...]:
    """One uniform g-subset of range(population) via partial Fisher-Yates."""
    slots = list(range(population))
    for i in range(g):
        j = i + _randbelow(rng, population - i)
        slots[i], slots[j] = slots[j], slots[i]
    return tuple(slots[:g])


def rig_bus_factor(blame: BlameSnapshot, identity: IdentityMap,
                   config: RigConfig = RigConfig()) -> RigResult:
    """Smallest departing group found to abandon the project.

    Sampled mode draws samples_per_size subsets per group size;
    exhaustive mode checks every subset in lexicographic order and is
    exact. Group size is capped at the developer population.
    """
    index = _Departures(blame, identity, config.line_abandon_fraction)
    population = len(index.population)
    cap = min(config.max_group_size, population)

    rng = random.Random(config.seed)
    evaluated = 0
    for g in range(1, cap + 1):
        if config.exhaustive:
            candidates = itertools.combinations(range(population), g)
        else:
            candidates = (_sample_indexes(rng, population, g)
                          for _ in range(config.samples_per_size))
        for indexes in candidates:
            evaluated += 1
            fraction = index.fraction(indexes)
            if fraction >= config.file_abandon_fraction:
                return RigResult(
                    bf_set=frozenset(index.population[i] for i in indexes),
                    samples_evaluated=evaluated,
                    abandoned_fraction_at_return=fraction,
                )
    return RigResult(bf_set=None, samples_evaluated=evaluated,
                     abandoned_fraction_at_return=0.0)


def rig_repeat(blame: BlameSnapshot, identity: IdentityMap,
               config: RigConfig, runs: int) -> list[RigResult]:
    """Repeat the estimate with seeds seed, seed+1, ... seed+runs-1.

    Exhaustive mode ignores the seed, so it searches once and returns
    that result runs times.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if config.exhaustive:
        return [rig_bus_factor(blame, identity, config)] * runs
    return [rig_bus_factor(blame, identity, config.replace(seed=config.seed + i))
            for i in range(runs)]


def summarize_runs(results: Sequence[RigResult]) -> dict[str, int | None]:
    """Min/max/mode of the bus factors over repeated runs; all None
    when no run found a feasible group."""
    values = [r.bus_factor for r in results if r.bus_factor is not None]
    if not values:
        return {"min": None, "max": None, "mode": None}
    counts = Counter(values)
    top = max(counts.values())
    return {
        "min": min(values),
        "max": max(values),
        "mode": min(value for value, n in counts.items() if n == top),
    }
