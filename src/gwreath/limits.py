"""Size guard shared by all enumerators.

The objects enumerated here grow super-exponentially in n, so every
enumerator predicts its cardinality up front and refuses to start when the
prediction exceeds the caller's limit.  Pass ``limit=None`` to force.
"""

from __future__ import annotations

from .errors import SizeLimitError

DEFAULT_LIMIT = 5_000_000


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
