"""The vertex-count limits of the size-bounded operations.

Every bound lives in ``VERTEX_LIMITS``, and every operation checks its
input with ``check_vertices``, so the README's limits table has one source.
"""

from __future__ import annotations

# operation: (least, greatest) number of vertices it accepts
VERTEX_LIMITS = {
    "canonical_form": (1, 8),
    "enumerate_graphs": (1, 7),
    "sweep": (2, 6),
}


def check_vertices(operation: str, m: int) -> None:
    """Raise ValueError unless m lies in the operation's vertex range."""
    low, high = VERTEX_LIMITS[operation]
    if not low <= m <= high:
        raise ValueError(f"{operation} supports {low}..{high} vertices, not {m}")
