"""Seeded generator of long class-A paths for the ``long-paths`` workloads.

A path is a sequence of random indecomposable components whose lengths (in
steps) follow a truncated Pareto law, so most components are a few steps long
and a handful run to thousands of steps:

* a below-ground component is ``D`` + a mirrored uniform Dyck path + ``U``,
  hence flat-free;
* an above-ground component is ``U`` + Y + ``D`` where Y stays at height >= 1
  and every flatstep of Y sits on y=2.

Lengths are drawn by stratified sampling (one draw per quantile stratum) and
neighbouring strata are split evenly between the two kinds, so the total
length, the component count and the share of steps above ground are fixed;
the seed moves only the shapes, the order and which side each component takes.
That keeps the work per path nearly seed-independent while the inputs differ.
This module does not import the program: it returns plain step strings.
"""

from __future__ import annotations

import random

_MIRROR = str.maketrans("UD", "DU")

# Component lengths in steps: truncated Pareto on [MIN_LEN, MAX_LEN].
MIN_LEN = 2
MAX_LEN = 20_000
ALPHA = 0.7


def dyck(rng: random.Random, k: int) -> str:
    """Uniform Dyck path of semilength k (cycle lemma on k ups and k+1 downs)."""
    steps = ["U"] * k + ["D"] * (k + 1)
    rng.shuffle(steps)
    height = lowest = 0
    cut = 0
    for i, c in enumerate(steps):
        height += 1 if c == "U" else -1
        if height < lowest:
            lowest, cut = height, i + 1
    rotated = steps[cut:] + steps[:cut]
    return "".join(rotated[:-1])


def below(rng: random.Random, length: int) -> str:
    """Flat-free component of even ``length`` >= 2 lying below ground."""
    return "D" + dyck(rng, length // 2 - 1).translate(_MIRROR) + "U"


def _level_two(rng: random.Random, budget: int) -> str:
    """Steps starting and ending on y=2, never below it, flatsteps only on y=2."""
    out = []
    while budget > 0:
        if budget == 1 or rng.random() < 0.3:
            out.append("F")
            budget -= 1
        else:
            k = min(int(rng.paretovariate(1.2)) - 1, (budget - 2) // 2)
            out.append("U" + dyck(rng, k) + "D")
            budget -= 2 * k + 2
    return "".join(out)


def above(rng: random.Random, length: int) -> str:
    """Component of ``length`` steps (2 or >= 4) lying above ground, flatsteps on y=2."""
    out = ["U"]
    budget = length - 2
    while budget > 0:
        # Each excursion from y=1 takes at least two steps; never leave one step over.
        if budget < 4 or rng.random() < 0.3:
            piece = budget
        else:
            piece = rng.randint(2, budget - 2)
        out.append("U" + _level_two(rng, piece - 2) + "D")
        budget -= piece
    out.append("D")
    return "".join(out)


def _stratified_lengths(rng: random.Random, steps: int, count: int) -> list[int]:
    """``count`` Pareto lengths, one per quantile stratum, scaled to sum near ``steps``."""
    tail = (MIN_LEN / MAX_LEN) ** ALPHA
    raw = [
        MIN_LEN * (1 - (i + rng.random()) / count * (1 - tail)) ** (-1 / ALPHA)
        for i in range(count)
    ]
    scale = steps / sum(raw)
    return [max(MIN_LEN, round(x * scale)) for x in raw]


def class_a_path(rng: random.Random, steps: int, count: int) -> str:
    """A class-A path of exactly ``steps`` steps made of ``count`` components."""
    if count < 2 or steps < 8 * count:
        raise ValueError("need at least 2 components and 8 steps per component")
    lengths = _stratified_lengths(rng, steps, count)
    # Pair neighbouring strata: one of each pair goes below ground, one above.
    kinds = []
    for _ in range(count // 2):
        kinds += rng.sample(["below", "above"], 2)
    if count % 2:
        kinds.append("above")
    sized = []
    for kind, length in zip(kinds, lengths):
        if kind == "below":
            length += length % 2
        elif length == 3:
            length = 4
        sized.append([kind, length])
    # The longest above-ground component absorbs the rounding difference.
    longest = max((s for s in sized if s[0] == "above"), key=lambda s: s[1])
    longest[1] += steps - sum(s[1] for s in sized)
    if longest[1] < 4:
        raise ValueError("too few steps for the requested component count")
    rng.shuffle(sized)
    return "".join(below(rng, n) if kind == "below" else above(rng, n) for kind, n in sized)


def generate(seed: int, paths: int, steps: int, count: int) -> list[str]:
    """``paths`` class-A paths drawn from ``seed``; the same seed gives the same paths."""
    rng = random.Random(seed)
    return [class_a_path(rng, steps, count) for _ in range(paths)]
