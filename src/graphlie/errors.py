"""Exceptions shared across the package."""


class InternalInvariantError(RuntimeError):
    """A cross-check that can only fail on an implementation bug failed.

    Raised when two independent computations of the same quantity disagree,
    for example a greedy basis whose size differs from the dimension count,
    or a bracket that falls outside the span it provably belongs to. The
    command line maps this to exit status 2. Code that does not know the
    graph gives the phase; invariant_error then names graph, k and phase.
    """

    def __init__(self, message: str, phase: str | None = None):
        super().__init__(message if phase is None else f"{message} (phase: {phase})")
        self.message, self.phase = message, phase


def invariant_error(message: str, graph6: str, k: int, phase: str) -> InternalInvariantError:
    """An InternalInvariantError that names the graph, the step bound and the phase."""
    return InternalInvariantError(f"{message} (graph6 {graph6}, k = {k}, phase: {phase})")
