"""Exact combinatorics of partitions, strict partitions, and staircase
sequences, with brute-force verification sweeps for the identities that tie
them together."""

from .abseq import (
    ABSequence,
    EMPTY_SEQUENCE,
    InvalidABSequence,
    NonPositiveEntry,
    NonzeroAlternatingSum,
    NotWeaklyDecreasing,
    PreconditionViolated,
    alternating_sum,
    check_pairing_property,
    check_prefix_sign_property,
    enumerate_sequences,
    sequence_tails,
    validate,
)
from .bijections import (
    InternalInvariantViolation,
    InvalidSequence,
    NotInDurfeeClass,
    NotInSplitImage,
    StaircaseSplit,
    count_strict_by_parts_rank,
    count_strict_by_parts_rank_formula,
    durfee_class,
    is_valid_split,
    partition_from_sequence,
    partition_from_sequence_by_filling,
    sequence_from_partition,
    split_strict,
    unsplit_strict,
)
from .partitions import (
    ColumnSequence,
    MalformedColumns,
    Partition,
    StrictPartition,
    bg_rank,
    columns,
    conjugate,
    enumerate_partitions,
    enumerate_strict_partitions,
    from_columns,
    partition_count,
    partition_tuples,
    strict_partition_tuples,
)
from .qseries import (
    CoeffTable,
    gf_coefficients,
    strict_count_by_rank,
    strict_rank_gf,
)
from .verify import (
    Mismatch,
    VerificationReport,
    verify_bijection_phi,
    verify_congruences,
    verify_euler_vandervelde,
    verify_gf,
    verify_iota,
    verify_theorem34,
)

__version__ = "0.1.0"
