"""Exact-arithmetic graph Lie algebras and their rigidity classification.

Construct the k-step nilpotent Lie algebra of a finite simple graph over
the rationals, compute its slot-two nil-cohomology, search for deformation
witnesses, and classify rigidity, all without floating point.

The package root holds only ``__version__``; import each name from its
module (``graphlie.graphs``, ``graphlie.basis``, ``graphlie.liealg``,
``graphlie.cohomology``, ``graphlie.rigidity``, ``graphlie.cli``, ...).
"""

__version__ = "0.1.0"
