"""Independence detection in discrete probability tables via partition algebra.

The package detects strong conditional independence, its contextual
variants, and the weaker partition-based independencies that survive when
the strong notions fail; it also executes the corresponding inference rules
as a closure engine and provides nest/unnest coarsening operators whose
commutativity characterizes weak independence.
"""

__version__ = "0.1.0"

from .axioms import (
    ALL_RULES,
    AxiomStatement,
    ClosureResult,
    DerivationTrace,
    ProbeReport,
    apply_ciwi1,
    apply_ciwi2,
    apply_wi1,
    apply_wi2,
    apply_wi3,
    closure,
    replay_trace,
    soundness_probe,
)
from .errors import (
    LimitError,
    NormalizationError,
    ParseError,
    RuleShapeError,
    SchemaError,
    StatementError,
    WeakindError,
)
from .granular import (
    NestedCell,
    NestedTable,
    canonical_equal,
    load_nested,
    nest,
    nest_commutes,
    serialize_nested,
    unnest,
    wi_nest_equivalence,
)
from .independence import (
    Limits,
    Statement,
    Verdict,
    check_ci,
    check_csi,
    check_cwi,
    check_pci,
    check_wi,
    enumerate_statements,
    replay,
)
from .partitions import (
    Partition,
    SupportSet,
    commutes,
    projected_domain,
    restrict_context,
    theta,
)
from .tables import (
    Table,
    ValidationReport,
    Variable,
    VariableSchema,
    load_table,
    random_joint_table,
    serialize_table,
    uniform_joint_extension,
)
