"""Random expression generation and shrinking.

The generator is seeded and fully deterministic, so large randomized
sweeps can be reproduced from a single integer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .syntax import (
    Cat,
    Empty,
    Eps,
    Or,
    Regex,
    Shuffle,
    Star,
    Sym,
    children,
    format_regex,
    size,
)

_WEIGHTS = {
    "empty": 1,
    "eps": 2,
    "sym": 8,
    "cat": 5,
    "or": 5,
    "star": 2,  # damped so trees do not degenerate into star towers
    "shuffle": 3,
}

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the random generator; identical configs yield identical streams."""

    max_size: int = 15
    alphabet_size: int = 3
    shuffle_enabled: bool = True
    seed: int = 0

    def symbols(self) -> list[str]:
        if self.alphabet_size <= len(_LETTERS):
            return list(_LETTERS[: self.alphabet_size])
        return [f"s{i}" for i in range(self.alphabet_size)]


def gen_corpus(cfg: GenConfig, count: int) -> list[Regex]:
    """A reproducible stream of ``count`` random expressions, each of size <= cfg.max_size."""
    if cfg.max_size < 1:
        raise ValueError("max_size must be at least 1")
    if cfg.alphabet_size < 1:
        raise ValueError("alphabet_size must be at least 1")
    rng = random.Random(cfg.seed)
    return [_gen(cfg, rng, cfg.max_size) for _ in range(count)]


def _gen(cfg: GenConfig, rng: random.Random, budget: int) -> Regex:
    kinds = ["empty", "eps", "sym"]
    if budget >= 2:
        kinds.append("star")
    if budget >= 3:
        kinds.extend(["cat", "or"])
        if cfg.shuffle_enabled:
            kinds.append("shuffle")
    kind = rng.choices(kinds, weights=[_WEIGHTS[k] for k in kinds])[0]
    match kind:
        case "empty":
            return Empty()
        case "eps":
            return Eps()
        case "sym":
            return Sym(rng.choice(cfg.symbols()))
        case "star":
            return Star(_gen(cfg, rng, budget - 1))
    left_budget = rng.randint(1, budget - 2)
    left = _gen(cfg, rng, left_budget)
    right = _gen(cfg, rng, budget - 1 - left_budget)
    match kind:
        case "cat":
            return Cat(left, right)
        case "or":
            return Or(left, right)
    return Shuffle(left, right)


def file_descriptor_spec(n: int) -> Regex:
    """n interleaved open/access/close sessions: o1 a1 c1 || ... || on an cn."""
    if n < 1:
        raise ValueError("need at least one session")

    def session(i: int) -> Regex:
        return Cat(Cat(Sym(f"o{i}"), Sym(f"a{i}")), Sym(f"c{i}"))

    spec = session(1)
    for i in range(2, n + 1):
        spec = Shuffle(spec, session(i))
    return spec


def shrink_regex(e: Regex, predicate: Callable[[Regex], bool]) -> Regex:
    """Greedily minimize ``e`` while ``predicate`` keeps holding.

    Candidates are direct subtrees and single-child hoists; the
    predicate is assumed true for ``e`` itself.
    """
    current = e
    while True:
        kids = children(current)
        candidates: list[Regex] = list(kids)
        for i, child in enumerate(kids):
            for grandchild in children(child):
                replaced = list(kids)
                replaced[i] = grandchild
                candidates.append(type(current)(*replaced))
        candidates = [c for c in set(candidates) if size(c) < size(current)]
        candidates.sort(key=lambda c: (size(c), format_regex(c)))
        for candidate in candidates:
            if predicate(candidate):
                current = candidate
                break
        else:
            return current
