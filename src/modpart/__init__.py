"""Partition-level combinatorics of modular representations in odd
characteristic: residue signatures and the crystal operators on p-regular
partitions, the Mullineux involution (two independent routes), JS-partitions,
a tensor-product irreducibility classifier at p = 5, and an exhaustive
verification harness over bounded sweeps.
"""

from . import errors
from .branching import (
    CALIBRATED_ORIENTATION,
    NodeClassification,
    Orientation,
    addable_nodes,
    classify_nodes,
    is_js,
    node_counts,
    removable_nodes,
    tilde_e,
    tilde_f,
)
from .harness import (
    CHECK_ORDER,
    CHECKS,
    LemmaReport,
    calibration_report,
    merge_reports,
    run_all,
    run_check,
)
from .js import enumerate_js, is_js_arith
from .labels import (
    AnIrreducible,
    ClassificationOutcome,
    LabelKind,
    ReasonCode,
    Verdict,
    classify_tensor,
    is_dimension_one,
    make_label,
    nu_of,
)
from .mullineux import (
    MullineuxResult,
    attach_p_rim,
    is_mullineux_fixed,
    mullineux,
    mullineux_image,
    mullineux_symbol,
    mullineux_via_symbol,
    remove_p_rim,
)
from .partitions import (
    EMPTY,
    Node,
    Partition,
    conjugate,
    enumerate_partitions,
    exponent_form,
    format_partition,
    is_p_regular,
    parse_partition,
    residue,
    specht_dimension,
    validate_prime,
)

__version__ = "0.1.0"

__all__ = [
    "CALIBRATED_ORIENTATION",
    "CHECKS",
    "CHECK_ORDER",
    "EMPTY",
    "AnIrreducible",
    "ClassificationOutcome",
    "LabelKind",
    "LemmaReport",
    "MullineuxResult",
    "Node",
    "NodeClassification",
    "Orientation",
    "Partition",
    "ReasonCode",
    "Verdict",
    "addable_nodes",
    "attach_p_rim",
    "calibration_report",
    "classify_nodes",
    "classify_tensor",
    "conjugate",
    "enumerate_js",
    "enumerate_partitions",
    "errors",
    "exponent_form",
    "format_partition",
    "is_dimension_one",
    "is_js",
    "is_js_arith",
    "is_mullineux_fixed",
    "is_p_regular",
    "make_label",
    "merge_reports",
    "mullineux",
    "mullineux_image",
    "mullineux_symbol",
    "mullineux_via_symbol",
    "node_counts",
    "nu_of",
    "parse_partition",
    "remove_p_rim",
    "removable_nodes",
    "residue",
    "run_all",
    "run_check",
    "specht_dimension",
    "tilde_e",
    "tilde_f",
    "validate_prime",
]
