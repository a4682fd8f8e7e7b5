"""Privilege calculus: an employment algebra, fact-driven conditions,
privileges with normal and pulsed forms, the PAL policy language, and
compliance queries over arrangements.

All values are immutable; operations return new values, so everything
here is safe to share across threads.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .algebra import (
    Employment,
    Entity,
    EntitySet,
    FunctionSymbol,
    UNIVERSAL,
)
from .errors import PrivCalcError, SourceError
from .facts import (
    Condition,
    DeclarationError,
    EvaluationError,
    Fact,
    FactFamily,
    FalseCondition,
    Statement,
    TrueCondition,
    WitnessCondition,
    close_family,
    evidences,
    load_facts,
    minimum_evidences,
)
from .privilege import (
    Arrangement,
    ArrangementError,
    Coefficient,
    ConditionMergeMode,
    HighOrderCondition,
    NormalForm,
    Privilege,
    PrivilegeAtom,
    PulsedForm,
    TraceMatrix,
    atomic_arrangement,
    compliance_condition,
    compliant,
    compose,
    congruence_condition,
    congruent,
    merge,
    normal_form,
    pulse,
    structural_eq,
    trace,
)
from .pal import (
    LexError,
    ParseError,
    format_expr,
    format_program,
    parse_expression,
    parse_text,
)
from .engine import (
    ComplianceQuery,
    Environment,
    EquivalenceQuery,
    EvalQuery,
    NormalFormQuery,
    PulseQuery,
    QueryResult,
    RbacImportError,
    RbacModel,
    ResolutionError,
    TraceQuery,
    arrangement_from_text,
    eval_text,
    import_rbac,
    load_program,
    load_rbac,
)

# Importing the names above also binds the submodules here; they are
# reachable as attributes but not exported.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
