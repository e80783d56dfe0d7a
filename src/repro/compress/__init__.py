"""Gradient compression: selection, quantization, packing, error feedback."""

from .error_feedback import NodeResiduals, ResidualStore
from .packing import pack_signs, pack_ternary, unpack_signs, unpack_ternary
from .quantization import (
    ONE_BIT_STATS,
    QuantizedRows,
    dequantize,
    quantization_error,
    quantize,
    quantize_1bit,
    quantize_2bit,
)
from .selection import (
    SELECTION_POLICIES,
    SelectionStats,
    random_selection,
    select,
    threshold_selection,
)

__all__ = [
    "NodeResiduals",
    "ONE_BIT_STATS",
    "QuantizedRows",
    "ResidualStore",
    "SELECTION_POLICIES",
    "SelectionStats",
    "dequantize",
    "pack_signs",
    "pack_ternary",
    "quantization_error",
    "quantize",
    "quantize_1bit",
    "quantize_2bit",
    "random_selection",
    "select",
    "threshold_selection",
    "unpack_signs",
    "unpack_ternary",
]
