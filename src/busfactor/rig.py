"""Blame-based bus factor by simulated developer departure.

For group sizes g = 1, 2, ... draw random g-subsets of the developers
owning lines at the analyzed revision; the bus factor is the first g
at which some drawn subset's departure abandons at least half of the
files (a file counts as abandoned once 90% of its lines belonged to
departed developers). An exhaustive mode enumerates every subset and
therefore yields the exact minimum g.

Ownership is indexed once per snapshot, however many runs use it. Each
developer becomes one integer holding their line count of every file
in a bit field of its own, so testing a g-subset costs g big-integer
additions and one bit count. The subsets of a size stream through
`map`, `sum` and `int.bit_count` in C, and the Python loop runs only to
draw a sampled subset.

Before any test, a bound on the files any g-subset can abandon rules
out the group sizes too small to win; their subsets are counted, not
tested. The bound rests on critical owners: an owner holding more of a
file than the lines that may stay is in every group that abandons it.

A size can pass that bound while no group of it wins. For such sizes a
bounded depth-first proof walks groups by population position and drops
a prefix once its lines, plus each file's best lines from the developers
after it, cannot abandon enough files. Departures only add abandoned
files, so a size that cannot win rules out every smaller one: a sampled
run whose largest size is ruled out makes no draw, and an exhaustive run
counts each ruled-out size instead of testing it. The proof is tried
only when it costs a small share of the draws or tests it would save,
and when it runs out of budget the run goes on as without it. Either
way every result is the same.
"""
from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .errors import EmptySnapshot
from .identity import DeveloperId, IdentityMap
from .records import BlameSnapshot, Value

# A proof may take one step, a node it walks or a field of its suffix
# table, per this many draws or subset tests it would save. Measured on
# seed-3 deep-history (20 developers, 24 files) on 2 vCPUs: a field takes
# about 80 ns to build, a node 0.5 us, a draw 0.19 us and a subset test
# in C 0.2-0.5 us. A proof out of budget thus costs at most about 27% of
# the draws it would save, and less of the tests. There, proving that no
# 6-subset wins takes 25-119 nodes on seeds 0-31, of the 1,320 allowed.
_WORK_PER_STEP = 10


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
        if self.seed < 0:  # random.Random seeds with the absolute value
            raise ValueError("seed must be >= 0")
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


def _lines_needed(total: int, threshold: float) -> int:
    """Fewest n of total (lines of a file, or files) for which
    n / total >= threshold.

    The float quotient is monotone in n, so `gone >= need` is exactly
    the test `gone / total >= threshold`; with the threshold in (0, 1],
    need lies in [1, total].
    """
    need = int(threshold * total)
    while need / total < threshold:
        need += 1
    while (need - 1) / total >= threshold:
        need -= 1
    return need


def _pack(fields: list[tuple[int, int]]) -> int:
    """Sum of value << shift over (shift, value) pairs in rising shift
    order.

    Adding each term to one total costs the total's size per term.
    Merging adjacent pairs level by level touches each bit once per
    level instead, so long lists are merged down to a few terms first.
    """
    while len(fields) > 8:
        merged = [(s, v + (w << (t - s)))
                  for (s, v), (t, w) in zip(fields[::2], fields[1::2])]
        if len(fields) % 2:
            merged.append(fields[-1])
        fields = merged
    total = 0
    for shift, value in fields:
        total += value << shift
    return total


class _Departures:
    """A snapshot indexed for departure tests.

    `population` lists the developers owning lines, in sort_key order,
    and `need[f]` the lines of file f (in path order) whose departure
    abandons it. Each file gets a bit field of width
    w_f = total_f.bit_length() plus one guard bit above it; `packed[i]`
    holds developer i's line count of each file in that file's field.
    `bias` holds 2**w_f - need[f] in each field and `top` every guard
    bit. A group's lines of f sum to at most total_f < 2**w_f, and need
    lies in [1, total_f], so in bias + the group's packed values a field
    reaches its guard bit exactly when the group holds need[f] lines of
    f, and never carries into the next field.
    """

    def __init__(self, blame: BlameSnapshot, identity: IdentityMap,
                 line_threshold: float):
        if not 0.0 < line_threshold <= 1.0:
            raise ValueError("line_abandon_fraction must lie in (0, 1], "
                             f"got {line_threshold}")
        if not blame.files:
            raise EmptySnapshot("blame snapshot lists no files")
        canonical = identity.canonical
        fields: dict[DeveloperId, list[tuple[int, int]]] = {}
        bias: list[tuple[int, int]] = []
        top: list[tuple[int, int]] = []
        self.need: list[int] = []
        shift = 0
        # g -> (owners, k) for each file whose g largest owners first
        # hold its need, where any group abandoning the file holds at
        # least k of these owners (see level_bounds)
        self._killable_from: dict[int, list[tuple[list[DeveloperId],
                                                  int]]] = {}
        # (wins_at, cap) -> first_tested, so that runs sharing the index
        # walk the level bound once
        self._first: dict[tuple[int, int], int] = {}
        # (g, wins_at) -> cannot_win, so that they prove once
        self._proved: dict[tuple[int, int], bool] = {}
        for path in sorted(blame.files):
            owners = blame.files[path]
            if not owners:
                raise EmptySnapshot(f"blame snapshot lists {path!r} "
                                    "with no lines")
            counts: dict[DeveloperId, int] = {}
            for author, n in owners.items():
                dev = canonical(author)
                counts[dev] = counts.get(dev, 0) + n
            for dev, n in counts.items():
                fields.setdefault(dev, []).append((shift, n))
            total = sum(owners.values())
            need = _lines_needed(total, line_threshold)
            width = total.bit_length()
            self.need.append(need)
            bias.append((shift, (1 << width) - need))
            top.append((shift, 1 << width))
            shift += width + 1
            level = 1
            for held in itertools.accumulate(sorted(counts.values(),
                                                    reverse=True)):
                if held >= need:
                    break
                level += 1
            # without a critical owner's lines, fewer than need remain
            critical = [dev for dev, n in counts.items() if n > total - need]
            self._killable_from.setdefault(level, []).append(
                (critical, len(critical)) if critical
                else (list(counts), level))
        self.population = sorted(fields, key=DeveloperId.sort_key)
        # each developer's (shift, lines) of every file they own lines of
        self._owned = [fields[dev] for dev in self.population]
        self.packed = [_pack(owned) for owned in self._owned]
        self.bias = _pack(bias)
        self.top = _pack(top)

    def abandoned(self, departed: Iterable[int]) -> int:
        """Files abandoned when the developers at these distinct
        population positions leave."""
        packed = self.packed
        return (sum(map(packed.__getitem__, departed), self.bias)
                & self.top).bit_count()

    def first_tested(self, wins_at: int, cap: int) -> int:
        """The smallest g up to cap whose level bound reaches wins_at
        abandoned files, or cap + 1 when none does: no smaller group can
        win."""
        key = (wins_at, cap)
        if key not in self._first:
            bounds = zip(range(1, cap + 1), self.level_bounds())
            self._first[key] = next((g for g, most in bounds
                                     if most >= wins_at), cap + 1)
        return self._first[key]

    def cannot_win(self, g: int, wins_at: int, work: int) -> bool:
        """Whether a proof shows that no g-subset abandons wins_at files.

        The proof is tried only when its table and node budget cost less
        than a _WORK_PER_STEP-th of `work`, the draws or subset tests it
        would save. Out of budget or not tried, it shows nothing.
        """
        key = (g, wins_at)
        if key not in self._proved:
            budget = (work // _WORK_PER_STEP
                      - len(self.population) * g * len(self.need))
            self._proved[key] = (budget > 0
                                 and self.search(g, wins_at, budget) is False)
        return self._proved[key]

    def search(self, g: int, wins_at: int, budget: int) -> bool | None:
        """Whether some g-subset abandons wins_at files, or None when
        `budget` nodes did not decide it.

        The walk picks developers in increasing population position. It
        drops a prefix once the prefix's lines plus the best lines that
        the remaining slots can add from later developers, file by file
        (suffix_best), set fewer than wins_at guard bits. The two sets of
        developers are disjoint, so no field exceeds its file's total and
        the guard arithmetic stays exact. With every slot filled the test
        is exact, so an unlimited budget decides every size.
        """
        best = self.suffix_best(g)
        packed, top = self.packed, self.top
        stack = [(self.bias, 0, g)]  # (bias + prefix lines, next, slots)
        while stack:
            lines, start, left = stack.pop()
            for i in range(start, len(packed) - left + 1):
                budget -= 1
                if budget < 0:
                    return None
                # best[i] only shrinks as i grows, so no later i can win
                if ((lines + best[i][left]) & top).bit_count() < wins_at:
                    break
                if left > 1:
                    stack.append((lines + packed[i], i + 1, left - 1))
                elif ((lines + packed[i]) & top).bit_count() >= wins_at:
                    return True
        return False

    def suffix_best(self, slots: int) -> list[list[int]]:
        """best[s][r] for s up to the population and r up to slots: in
        each file's field, the sum of the r largest line counts of that
        file among the developers at positions s and later."""
        # each file's largest counts so far, negated to sort rising
        largest: dict[int, list[int]] = {}
        row = [0] * (slots + 1)
        best = [row]
        for owned in reversed(self._owned):
            row = row.copy()
            for shift, n in owned:
                kept = largest.setdefault(shift, [])
                at = bisect.bisect_right(kept, -n)
                # the r largest gain n and lose the r-th largest
                for r in range(at + 1, slots + 1):
                    lost = -kept[r - 1] if r <= len(kept) else 0
                    row[r] += (n - lost) << shift
                kept.insert(at, -n)
                del kept[slots:]
            best.append(row)
        best.reverse()
        return best

    def level_bounds(self) -> Iterator[int]:
        """For g = 1, 2, ...: an upper bound on the files that the
        departure of any g developers abandons.

        g developers abandon only files killable at g, whose g largest
        owners hold their need. Each killable file spreads one unit of
        weight over the owners that a group abandoning it must include:
        1/k to each of its k critical owners, the owners holding more
        lines than the file may keep, or when it has none, 1/level to
        each owner, since a group abandoning it includes at least
        `level` of them. A group thus weighs at least the number of
        files it abandons, so g developers abandon at most the lesser
        of the number of killable files and the sum of the g largest
        weights, rounded down. No weight exceeds a developer's count of
        killable files they own lines of. The weights are kept as
        integers scaled by the lcm of every k and level.
        """
        scale = math.lcm(*(k for files in self._killable_from.values()
                           for _, k in files))
        killable = 0
        weight: Counter[DeveloperId] = Counter()
        for g in itertools.count(1):
            for owners, k in self._killable_from.get(g, ()):
                killable += 1
                share = scale // k
                for dev in owners:
                    weight[dev] += share
            yield min(killable, sum(sorted(weight.values(),
                                           reverse=True)[:g]) // scale)


def abandoned_file_fraction(blame: BlameSnapshot, identity: IdentityMap,
                            departed: Iterable[DeveloperId],
                            line_abandon_fraction: float = 0.90) -> float:
    """Fraction of files whose line ownership is at least
    line_abandon_fraction held by the departed set; the fraction must
    lie in (0, 1], as in RigConfig."""
    index = _Departures(blame, identity, line_abandon_fraction)
    position = {dev: i for i, dev in enumerate(index.population)}
    abandoned = index.abandoned({position[dev] for dev in departed
                                 if dev in position})
    return abandoned / len(index.need)


def _steps(population: int, g: int) -> list[tuple[int, int]]:
    """(bound, bit length) of each of the g rejection draws that pick a
    g-subset of range(population) by partial Fisher-Yates."""
    return [(n, n.bit_length())
            for n in range(population, population - g, -1)]


def _drawn(rng: random.Random, deck: list[int], g: int,
           samples: int) -> Iterator[list[int]]:
    """`samples` uniform g-subsets of deck, which must hold range(len(deck)).

    Each is deck[:g] after a partial Fisher-Yates shuffle. Swap i draws
    j by rejection on getrandbits, so the consumed bit stream is fully
    specified by this module. Drawing is lazy: while a subset is being
    looked at, deck holds it in its first g places, and its swaps are
    undone, restoring deck in O(g), only when the next one is asked for.
    """
    getrandbits = rng.getrandbits
    steps = list(enumerate(_steps(len(deck), g)))
    swaps = [0] * g
    for _ in range(samples):
        for i, (n, bits) in steps:
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
            j += i
            deck[i], deck[j] = deck[j], deck[i]
            swaps[i] = j
        yield deck[:g]
        for i in range(g - 1, -1, -1):
            j = swaps[i]
            deck[i], deck[j] = deck[j], deck[i]


def rig_bus_factor(blame: BlameSnapshot, identity: IdentityMap,
                   config: RigConfig = RigConfig(), *,
                   index: _Departures | None = None) -> RigResult:
    """Smallest departing group found to abandon the project.

    Sampled mode draws samples_per_size subsets per group size;
    exhaustive mode checks every subset in lexicographic order and is
    exact. Group size is capped at the developer population.

    The subsets of a group size that the level bound or the proof
    rules out count as evaluated without being tested. Sampled mode
    still makes their draws when a later size is tested, so that size
    draws the subsets it would have drawn without them; when the proof
    rules out the largest size, no size is tested and nothing is drawn.

    `index` is the snapshot's departure index at the config's line
    threshold when the caller has built it already, as `rig_repeat`
    does once for all its runs.
    """
    if index is None:
        index = _Departures(blame, identity, config.line_abandon_fraction)
    population = len(index.population)
    cap = min(config.max_group_size, population)
    files = len(index.need)
    # abandoned / files >= file_abandon_fraction exactly when
    # abandoned >= wins_at
    wins_at = _lines_needed(files, config.file_abandon_fraction)
    first = index.first_tested(wins_at, cap)
    samples = config.samples_per_size

    if (not config.exhaustive and first <= cap and index.cannot_win(
            cap, wins_at, samples * cap * (cap + 1) // 2)):
        first = cap + 1  # no group of size cap wins, so no smaller one does
    rng = random.Random(config.seed)
    if config.exhaustive:
        evaluated = sum(math.comb(population, g) for g in range(1, first))
    else:
        evaluated = samples * (first - 1)
        if first <= cap:  # the first tested size draws from where these end
            getrandbits = rng.getrandbits
            draws = itertools.chain.from_iterable(
                itertools.repeat(_steps(population, g), samples)
                for g in range(1, first))
            for n, bits in itertools.chain.from_iterable(draws):
                while getrandbits(bits) >= n:
                    pass
    packed = index.packed
    deck = list(range(population))
    for g in range(first, cap + 1):
        if config.exhaustive:
            subsets = math.comb(population, g)
            if index.cannot_win(g, wins_at, subsets):
                evaluated += subsets
                continue
            groups = itertools.combinations(packed, g)
        else:
            groups = map(map, itertools.repeat(packed.__getitem__),
                         _drawn(rng, deck, g, samples))
        abandoned = map(int.bit_count, map(index.top.__and__, map(
            sum, groups, itertools.repeat(index.bias))))
        won = next(itertools.compress(itertools.count(),
                                      map(wins_at.__le__, abandoned)), None)
        if won is None:
            evaluated += (math.comb(population, g) if config.exhaustive
                          else samples)
            continue
        evaluated += won + 1
        if config.exhaustive:
            indexes = next(itertools.islice(
                itertools.combinations(range(population), g), won, None))
        else:  # the draws stopped at the winner, which deck still holds
            indexes = deck[:g]
        return RigResult(
            bf_set=frozenset(index.population[i] for i in indexes),
            samples_evaluated=evaluated,
            abandoned_fraction_at_return=index.abandoned(indexes) / files,
        )
    return RigResult(bf_set=None, samples_evaluated=evaluated,
                     abandoned_fraction_at_return=0.0)


def rig_repeat(blame: BlameSnapshot, identity: IdentityMap,
               config: RigConfig, runs: int) -> list[RigResult]:
    """Repeat the estimate with seeds seed, seed+1, ... seed+runs-1.

    Exhaustive mode ignores the seed, so it searches once and returns
    that result runs times. Sampled runs share one departure index.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if config.exhaustive:
        return [rig_bus_factor(blame, identity, config)] * runs
    index = _Departures(blame, identity, config.line_abandon_fraction)
    return [rig_bus_factor(blame, identity,
                           config.replace(seed=config.seed + i), index=index)
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
