"""roleforge: implication-space semantics over signed incompatibility frames.

Declare a frame (atoms plus an incoherence relation), compute ranges of
subjunctive robustness and the induced role lattice with its Girard-quantale
operations, interpret Boolean and MALL formulas as conceptual contents,
decide semantic consequence and NMMS derivability, and audit the structural
properties (conservativity, supralinearity, supraclassicality) that connect
them -- all at desk scale, exactly.

Names are imported from their modules (``roleforge.rsr``,
``roleforge.semantics``, ...); the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
