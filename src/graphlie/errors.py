"""Exceptions shared across the package."""


class InternalInvariantError(RuntimeError):
    """A cross-check that can only fail on an implementation bug failed.

    Raised when two independent computations of the same quantity disagree,
    for example a greedy basis whose size differs from the dimension count,
    or a bracket that falls outside the span it provably belongs to. The
    command line maps this to exit status 2.
    """


def invariant_error(message: str, graph6: str, k: int, phase: str) -> InternalInvariantError:
    """An InternalInvariantError that names the graph, the step bound and the phase."""
    return InternalInvariantError(f"{message} (graph6 {graph6}, k = {k}, phase: {phase})")
