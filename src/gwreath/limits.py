"""Size guard shared by all enumerators, and the one rule for what they hold.

The objects enumerated here grow super-exponentially in n, so every
enumerator predicts its cardinality up front and refuses to start when the
prediction exceeds the caller's limit.  Pass ``limit=None`` to force.

A walk that is read again and again (the skeletons of a product, the
blocks of a size sequence, the oracle's type fibers) goes through
``held_walk``, which decides once per key whether its items are kept.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .errors import SizeLimitError

DEFAULT_LIMIT = 5_000_000

HELD_WALKS = 4096  # keys each held walk keeps, the least recent dropped first
HELD_INTEGERS = 100_000  # the most integers a kept key's items may hold


def check_limit(estimate: int, limit: int | None, what: str) -> None:
    if limit is not None and estimate > limit:
        try:
            shown = str(estimate)
        except ValueError:  # more digits than Python converts to text
            shown = f"2**{estimate.bit_length() - 1} or more"
        raise SizeLimitError(
            f"{what} would produce an estimated {shown} items, over the "
            f"limit of {limit}; raise the limit (or pass limit=None) to force",
            estimate=estimate,
        )


class _Rewalk(partial):
    """The items of a walk too large to hold: each iteration walks anew."""

    def __iter__(self):
        return iter(self())


def held_walk(walk, integers):
    """``walk(*key)`` memoised per key in an LRU of ``HELD_WALKS`` keys: a
    tuple of its items when ``integers(*key)``, a bound on the integers they
    hold, is at most ``HELD_INTEGERS``, and otherwise a re-iterable that
    walks anew each time.  Either way no caller needs a fallback."""

    @lru_cache(maxsize=HELD_WALKS)
    def held(*key):
        if integers(*key) > HELD_INTEGERS:
            return _Rewalk(walk, *key)
        return tuple(walk(*key))

    return held
