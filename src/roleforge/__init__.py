"""roleforge: implication-space semantics over signed incompatibility frames.

Declare a frame (atoms plus an incoherence relation), compute ranges of
subjunctive robustness and the induced role lattice with its Girard-quantale
operations, interpret Boolean and MALL formulas as conceptual contents,
decide semantic consequence and NMMS derivability, and audit the structural
properties (conservativity, supralinearity, supraclassicality) that connect
them -- all at desk scale, exactly.
"""

from .formulas import (
    Atom, Bin, Formula, FormulaSyntaxError, Neg, parse_formula, parse_sequent, render,
    render_sequent,
)
from .frames import (
    AtomTable, Frame, FrameError, FrameSyntaxError, ModeMismatchError, Position,
    PositionRangeError, Verdict, parse_frame, serialize_frame,
)
from .morphisms import (
    FrameMorphism, check_conservative, check_continuous, continuity_condition3,
    preserves_bot,
)
from .nmms import FormulaSequent, NmmsFragmentError, decide, reduction_trace
from .oracles import (
    MallBoundError, OracleFragmentError, classical_valid, continuity_condition4,
    mall_provable, rsr_naive,
)
from .quantale import (
    IdempotenceError, LawReport, QuantaleOps, check_gq_laws, is_join_idempotent, quantale,
)
from .rsr import (
    LatticeSizeError, PositionSet, Role, RoleLattice, closure, is_role,
    principal_blockers, role_lattice, rsr,
)
from .semantics import (
    ClauseError, Content, ContentSequent, Interpretation, entails, eval_formula,
    find_explicit_connective, interpret_atom, interpretation, is_reflexive_content,
    satisfies_cut_condition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
