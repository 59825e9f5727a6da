"""Exhaustive verification toolkit for finite graded commutative rings and
modules: classification predicates, subobject calculus, transport
constructions, and an instance-verification harness with a CLI."""

from .classifiers import (
    IDEAL_PREDICATES,
    SUBMODULE_PREDICATES,
    PredicateVerdict,
    classify_ideal,
    classify_submodule,
    coprimary_via_characterization,
    is_graded_comultiplication_module,
    recheck_coprimary_violation,
    recheck_strong_violation,
)
from .constructions import (
    GradedHom,
    hom_image,
    hom_kernel,
    hom_preimage,
    identity_hom,
    localize,
    localize_module,
    localize_ring,
    localize_subobject,
    make_hom,
    multiplication_hom,
    product_graded_module,
    product_graded_ring,
    product_submodule,
)
from .core import (
    DEFAULT_MAX_ELEMENTS,
    FiniteModule,
    FiniteRing,
    GradingGroup,
    make_group,
    make_module,
    make_ring,
    validate_axioms,
)
from .corpus import build_standard_corpus
from .errors import (
    GradedAlgError,
    GradingInvalid,
    HomInvalid,
    InvalidDenominators,
    InvalidDescriptor,
    PreconditionViolation,
    StructureParseError,
    TooLarge,
    UnknownProposition,
)
from .grading import GradedModule, GradedRing, Grading, attach_grading
from .propositions import (
    PROPOSITION_IDS,
    VerificationReport,
    search_counterexample,
    verify_proposition,
)
from .structfile import CorpusEntry, parse_structure_file, parse_structure_text
from .subobjects import (
    IDEAL,
    SUBMODULE,
    SubobjectHandle,
    annihilator,
    colon,
    colon_by_element,
    combine,
    enumerate_graded_subobjects,
    graded_radical,
    ideal_component,
    is_graded,
    span,
    subobject,
    whole_subobject,
    zero_subobject,
)
