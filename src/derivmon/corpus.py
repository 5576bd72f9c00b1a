"""Random expression generation and shrinking.

The generator is seeded and fully deterministic, so large randomized
sweeps can be reproduced from a single integer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .syntax import (
    EMPTY,
    EPS,
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
)

_WEIGHTS: dict[type[Regex], int] = {
    Empty: 1,
    Eps: 2,
    Sym: 8,
    Cat: 5,
    Or: 5,
    Star: 2,  # damped so trees do not degenerate into star towers
    Shuffle: 3,
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
    kinds: list[type[Regex]] = [Empty, Eps, Sym]
    if budget >= 2:
        kinds.append(Star)
    if budget >= 3:
        kinds.extend([Cat, Or])
        if cfg.shuffle_enabled:
            kinds.append(Shuffle)
    kind = rng.choices(kinds, weights=[_WEIGHTS[k] for k in kinds])[0]
    if kind is Empty:
        return EMPTY
    if kind is Eps:
        return EPS
    if kind is Sym:
        return Sym(rng.choice(cfg.symbols()))
    if kind is Star:
        return Star(_gen(cfg, rng, budget - 1))
    left_budget = rng.randint(1, budget - 2)
    left = _gen(cfg, rng, left_budget)
    return kind(left, _gen(cfg, rng, budget - 1 - left_budget))


def file_descriptor_spec(n: int) -> Regex:
    """n interleaved open/access/close sessions: o1 a1 c1 || ... || on an cn."""
    if n < 1:
        raise ValueError("need at least one session")

    def session(i: int) -> Regex:
        return Cat(Sym(f"o{i}"), Cat(Sym(f"a{i}"), Sym(f"c{i}")))

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
        candidates = [c for c in set(candidates) if c.size < current.size]
        candidates.sort(key=lambda c: (c.size, format_regex(c)))
        for candidate in candidates:
            if predicate(candidate):
                current = candidate
                break
        else:
            return current
