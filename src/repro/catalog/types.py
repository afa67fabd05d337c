"""Column data types supported by the engine.

The engine is columnar and numpy-backed, so each logical data type maps to a
numpy storage dtype.  Only the types actually needed by the JOB / TPC-H / DSB
workloads are supported: 64-bit integers, double-precision floats, and
variable-length strings (stored as numpy object arrays).
"""

from __future__ import annotations

import enum

import numpy as np


class DataType(enum.Enum):
    """Logical column data type."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"

    @property
    def numpy_dtype(self) -> np.dtype:
        """Return the numpy dtype used to store columns of this type."""
        if self is DataType.INT:
            return np.dtype(np.int64)
        if self is DataType.FLOAT:
            return np.dtype(np.float64)
        return np.dtype(object)

    @property
    def is_numeric(self) -> bool:
        """True for INT and FLOAT columns (histogram-friendly types)."""
        return self in (DataType.INT, DataType.FLOAT)

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "DataType":
        """Infer the logical type of an existing numpy array dtype."""
        if np.issubdtype(dtype, np.integer):
            return cls.INT
        if np.issubdtype(dtype, np.floating):
            return cls.FLOAT
        return cls.STRING

