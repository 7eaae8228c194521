"""Finite closure operators, their lattices, generators, and representations.

The package is organized bottom-up:

* :mod:`closureops.core` — ground sets, bitmask subsets, closure operators,
  closed-set topologies, validation;
* :mod:`closureops.poset` — finite posets: Hasse diagrams, minimum chain
  covers (Dilworth), Möbius inversion;
* :mod:`closureops.generators` — weak orders and binary classifiers, and
  generation of operators by intersection;
* :mod:`closureops.complexity` — meet-irreducibles and the two complexity
  measures (MNWO, MNBC) with verified optimal witnesses;
* :mod:`closureops.labeling` — labeling correspondences and the classifiers
  they induce;
* :mod:`closureops.menus` — menu preferences, the Kreps operator, and
  state-space representations;
* :mod:`closureops.jsonio` / :mod:`closureops.cli` — JSON wire formats and the
  ``closureops`` command.

All arithmetic is exact (machine integers and :class:`fractions.Fraction`);
all values are immutable; all functions are pure and deterministic.
"""

from .complexity import (
    ORACLE_MAX_ELEMENTS,
    ComplexityComparison,
    ComplexityProfile,
    IrreducibleSet,
    complexity_profile,
    meet_irreducibles,
    more_complex,
    oracle_mnbc,
    oracle_mnwo,
)
from .core import (
    MAX_ELEMENTS,
    ClosureOperator,
    GroundSet,
    SubsetMask,
    Topology,
    ValidationReport,
    validate_closure,
)
from .errors import (
    AxiomsViolated,
    BadEndpoints,
    ClosureError,
    DoesNotRespect,
    ForeignMask,
    GroundSetMismatch,
    GroundSetTooLarge,
    InvalidClosureTable,
    InvalidOrderRelation,
    MissingEntry,
    MissingTopBottom,
    NotAChain,
    NotClosed,
    NotIntersectionClosed,
    SchemaError,
    WitnessVerificationFailed,
)
from .generators import (
    BinaryClassifier,
    GenerationReport,
    WeakOrder,
    check_generation,
    intersect_generate,
    is_single_chain,
    iter_weak_orders,
)
from .labeling import (
    Labeling,
    canonical_labeling,
    minimal_labeling,
)
from .menus import (
    AdditiveRepresentation,
    AdditiveState,
    AxiomReport,
    KrepsRepresentation,
    MenuPreference,
    additive_representation,
    check_axioms,
    kreps_operator,
    kreps_representation,
    respects,
)
from .poset import ChainCover, FinitePoset, MobiusTable, to_dot

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "MAX_ELEMENTS",
    "GroundSet",
    "SubsetMask",
    "Topology",
    "ValidationReport",
    "ClosureOperator",
    "validate_closure",
    # poset
    "FinitePoset",
    "ChainCover",
    "MobiusTable",
    "to_dot",
    # generators
    "WeakOrder",
    "BinaryClassifier",
    "GenerationReport",
    "intersect_generate",
    "check_generation",
    "is_single_chain",
    "iter_weak_orders",
    # complexity
    "ORACLE_MAX_ELEMENTS",
    "IrreducibleSet",
    "ComplexityProfile",
    "ComplexityComparison",
    "meet_irreducibles",
    "complexity_profile",
    "more_complex",
    "oracle_mnwo",
    "oracle_mnbc",
    # labeling
    "Labeling",
    "canonical_labeling",
    "minimal_labeling",
    # menus
    "MenuPreference",
    "AxiomReport",
    "KrepsRepresentation",
    "AdditiveState",
    "AdditiveRepresentation",
    "check_axioms",
    "kreps_operator",
    "respects",
    "kreps_representation",
    "additive_representation",
    # errors
    "ClosureError",
    "GroundSetTooLarge",
    "GroundSetMismatch",
    "ForeignMask",
    "MissingEntry",
    "InvalidClosureTable",
    "MissingTopBottom",
    "NotIntersectionClosed",
    "NotClosed",
    "InvalidOrderRelation",
    "NotAChain",
    "BadEndpoints",
    "WitnessVerificationFailed",
    "AxiomsViolated",
    "DoesNotRespect",
    "SchemaError",
]
