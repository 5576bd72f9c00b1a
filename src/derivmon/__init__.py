"""Regular-expression derivatives with shuffle, for online trace monitoring.

The package is organized around one expression type (:mod:`.syntax`)
and two rewriting engines over it: total Brzozowski derivatives
(:mod:`.derivative`) and set-valued Antimirov partial derivatives
(:mod:`.partial`).  On top of the partial-derivative relation sit the
space-budget functions (:mod:`.bounds`), the NFA construction
(:mod:`.automaton`), and the streaming monitor (:mod:`.monitor`).
:mod:`.oracle` is an independent brute-force semantics used to validate
everything else, :mod:`.check` states the paper's claims as checks on
one expression, and :mod:`.corpus` provides seeded random expressions
and shrinking.

Every expression node stores its nullability, size, height, hash and
first-symbol mask when it is built, so those are constant-time reads;
derivatives stay in the paper's raw, unsimplified form.  Nodes are
immutable by convention (nothing assigns to a built node), the other
values are immutable, and all functions are pure, so all of that is
safe to share across threads; a monitor session is advanced by building
a new session rather than mutating the old one.  The one module-level
function that keeps state between calls is :func:`.syntax.symbol_bit`,
whose memo is bounded and holds only what the name alone decides.  The
one mutable object is
:class:`.monitor.Monitor`, the transition table of one specification,
which its caller creates and owns.  Sessions opened from one monitor write to its table as they
step, so step them from one thread at a time, or give each thread its
own monitor.  The functions that :func:`.derivative.deriver`,
:func:`.derivative.acceptor` and :func:`.syntax.builder` return keep
state between calls, and their callers own them too: until dropped,
they remember what they derived or built, and their results equal
:func:`.derivative.derive`'s, :func:`.derivative.accepts`' and the
constructors', so that state changes only speed and identity.  (An
acceptor's live step applies the ``0`` and ``eps`` identities, builds
without a table and derives only what membership reads; it returns only
bools.)
"""

from .syntax import (
    Cat,
    Empty,
    Eps,
    Or,
    ParseError,
    Regex,
    Shuffle,
    Star,
    Sym,
    alphabet,
    format_regex,
    has_eps,
    height,
    parse,
    parse_word,
    size,
)
from .errors import CapacityError

__all__ = [
    "Cat",
    "CapacityError",
    "Empty",
    "Eps",
    "Or",
    "ParseError",
    "Regex",
    "Shuffle",
    "Star",
    "Sym",
    "alphabet",
    "format_regex",
    "has_eps",
    "height",
    "parse",
    "parse_word",
    "size",
]
