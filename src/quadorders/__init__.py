"""Classification of orders Z + n*O_K in quadratic number fields Q(sqrt(d)).

The library decides, by finite criteria, whether such an order is
ideal-preserving, locally associated, associated, or half-factorial, and ships
brute-force oracles over finite quotients plus a checkpointed grid census.
Lower-level helpers live in the submodules (arith, quadfield, pell, classgroup,
unitindex, classify, oracle, atlas, cli).
"""

from .arith import InternalConsistencyError
from .atlas import (
    ScanConfig,
    ScanVerificationError,
    record_to_csv_row,
    record_to_json_obj,
    report_hfd,
    scan,
)
from .classgroup import class_number
from .classify import ClassificationRecord, OrderSpec, classify_order, is_ideal_preserving
from .oracle import (
    OracleBoundError,
    brute_associated,
    brute_ideal_preserving,
    brute_locally_associated,
    quotient_unit_count,
)
from .pell import fundamental_unit, verify_unit
from .quadfield import field_char, make_field
from .unitindex import l_value, min_power

__version__ = "0.1.0"

__all__ = [
    "InternalConsistencyError",
    "ScanConfig",
    "ScanVerificationError",
    "record_to_csv_row",
    "record_to_json_obj",
    "report_hfd",
    "scan",
    "class_number",
    "ClassificationRecord",
    "OrderSpec",
    "classify_order",
    "is_ideal_preserving",
    "l_value",
    "OracleBoundError",
    "brute_associated",
    "brute_ideal_preserving",
    "brute_locally_associated",
    "quotient_unit_count",
    "fundamental_unit",
    "verify_unit",
    "field_char",
    "make_field",
    "min_power",
]
