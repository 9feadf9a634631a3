"""The size limits of the size-bounded operations.

Every vertex bound lives in ``VERTEX_LIMITS``, and every operation checks
its input with ``check_vertices``, which reads an operation's entry for
one k, such as ``"sweep at k = 3"``, before its general one; ``MAX_DIM``
bounds the basis that ``graded_basis`` builds and a loaded algebra,
``MAX_K`` the k that a command takes, and ``MAX_H2_DIM``,
``MAX_H2_CONSTANTS`` and ``MAX_H2_BRACKET_TERMS`` the algebra that
``h2_nil`` ranks. The README's limits table has this one source.
"""

from __future__ import annotations

# the most basis elements graded_basis builds; (6, 5) on K6 needs 1960
MAX_DIM = 2000

# operation: (least, greatest) number of vertices it accepts; each vertex of
# a parsed graph is a basis element, so parse_graph takes at most MAX_DIM
VERTEX_LIMITS = {
    "canonical_form": (1, 9),
    "enumerate_graphs": (1, 9),
    "parse_graph": (1, MAX_DIM),
    "sweep": (2, 7),
    # 12,346 classes on 8 vertices: about 14 s and a 21 MB report, streamed
    "sweep at k = 3": (2, 8),
}

# the greatest k a command takes: a graph with an edge has at least k + 1
# basis elements at step k, so a greater k is over MAX_DIM for it
MAX_K = MAX_DIM

# the most basis elements h2_nil takes; K10 at k = 2 (55) needs 0.2 s, 21 MB
MAX_H2_DIM = 55

# the most nonzero structure constants h2_nil takes: elimination slows with
# the density of the brackets, not only with n. K10 at k = 2 has 45, the
# most of any graph algebra within MAX_H2_DIM; a 2-step algebra with 6
# generators, 6 central vectors and all 6 central terms in every bracket
# (90) needs 18 s, and with 14 + 14 (1274) more than 120 s and 300 MB
MAX_H2_CONSTANTS = 45

# the most terms h2_nil takes in one bracket; a graph algebra at k = 2 has one,
# and 3 brackets of all 15 central terms each (45), padded to n = 55, need 11 s
MAX_H2_BRACKET_TERMS = 2


def check_vertices(operation: str, m: int, k: int | None = None) -> None:
    """Raise ValueError unless m lies in the operation's vertex range at k, if it has one."""
    if f"{operation} at k = {k}" in VERTEX_LIMITS:
        operation = f"{operation} at k = {k}"
    low, high = VERTEX_LIMITS[operation]
    if not low <= m <= high:
        raise ValueError(f"{operation} supports {low}..{high} vertices, not {m}")


def check_k(k: int) -> None:
    """Raise ValueError if k is over MAX_K."""
    if k > MAX_K:
        raise ValueError(f"k is {k}; the budget is {MAX_K}")


def check_dim(dims: list) -> None:
    """Raise ValueError if the per-degree dimensions add up to more than MAX_DIM."""
    if sum(dims) > MAX_DIM:
        raise ValueError(f"the algebra has {sum(dims)} basis elements; the budget is {MAX_DIM}")


def check_h2_size(n: int, sizes: list) -> None:
    """Raise ValueError if an algebra of n basis elements whose brackets have these
    term counts is over MAX_H2_DIM, MAX_H2_CONSTANTS or MAX_H2_BRACKET_TERMS."""
    if n > MAX_H2_DIM:
        raise ValueError(f"the algebra has {n} basis elements; the h2_nil budget is {MAX_H2_DIM}")
    if sum(sizes) > MAX_H2_CONSTANTS:
        raise ValueError(
            f"the algebra has {sum(sizes)} nonzero structure constants; "
            f"the h2_nil budget is {MAX_H2_CONSTANTS}"
        )
    if max(sizes, default=0) > MAX_H2_BRACKET_TERMS:
        raise ValueError(
            f"a bracket of the algebra has {max(sizes)} terms; "
            f"the h2_nil budget is {MAX_H2_BRACKET_TERMS} per bracket"
        )
