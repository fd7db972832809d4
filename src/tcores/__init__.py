"""t-core partition codings, exploded tableaux, multiset hook/content
ledgers, and exact verification of the associated q-series identities."""

from .halfint import HalfInt
from .partitions import (
    InvalidPartitionError,
    Partition,
    enumerate_partitions,
    enumerate_t_cores,
    partitions_up_to,
)
from .coding import (
    BeadSet,
    CodingDiagnostics,
    CoreCoding,
    InvalidCodingError,
    NonIntegerSizeError,
    NotACoreError,
    bead_relation_checks,
    bead_set,
    coding_size,
    coding_to_core,
    content_coding,
    content_coding_size,
    core_coding,
    cores_from_codings,
    enumerate_codings,
    is_content_coding_image,
    validate_coding,
)
from .exploded import (
    ExplodedWindow,
    InfiniteSelectionError,
    RelationViolationError,
    check_fold,
    check_fold_ledger,
    check_translation_relations,
    check_triangle_ledger,
    region_ledger,
    render,
)
from .weights import (
    DivisionByZeroWeightError,
    WeightLedger,
    ZeroArgumentError,
    coding_difference_ledger,
    content_ledger,
    evaluate,
    hook_shift_ledger,
    parity_coding_ledger,
    parity_normalize,
)
from .rings import Poly, PolynomialRing, PrimeField, RationalField
from .qseries import (
    BadConstantTermError,
    MacdonaldTerm,
    RingMismatchError,
    TruncatedSeries,
    macdonald_lhs,
    macdonald_rhs,
    macdonald_terms,
    partition_sum_series,
    schur_principal,
)
from .identities import (
    VerificationReport,
    run_suite,
    verify_classical_crosschecks,
    verify_exploded_relations,
    verify_golden_tables,
    verify_hook_content,
    verify_jacobi,
    verify_macdonald,
    verify_multiplication,
    verify_multiset_formula,
    verify_nekrasov_okounkov,
    verify_poly_s_family,
    verify_sin_family,
    verify_sin_lemma,
    verify_tcore_lemmas,
)

__version__ = "0.1.0"
