"""Columnar mini-dataframe — the pandas substitute used by the pipeline.

A :class:`Table` is a thin, immutable-by-convention mapping of column names
to equal-length one-dimensional numpy arrays.  The module provides the verbs
the paper's pipeline needs — filter, sort, group-by aggregation, hash joins,
interval (allocation-window) joins, and fixed-width time-window coarsening —
all implemented with vectorized numpy kernels (``argsort`` + ``reduceat``),
never per-row Python loops.
"""

from repro.frame.table import Table, concat
from repro.frame.ops import factorize, multi_factorize
from repro.frame.groupby import group_by, AGGREGATIONS
from repro.frame.join import join, interval_join
from repro.frame.window import window_aggregate
from repro.frame.io import save_npz, load_npz, write_csv
from repro.frame.columnar import (
    RcsFile,
    save_rcs,
    open_rcs,
    load_rcs,
    zone_map,
)
from repro.frame.encodings import (
    CODECS,
    ColumnarFormatError,
    compression_mode,
    decode_column,
    encode_column,
)

__all__ = [
    "Table",
    "concat",
    "factorize",
    "multi_factorize",
    "group_by",
    "AGGREGATIONS",
    "join",
    "interval_join",
    "window_aggregate",
    "save_npz",
    "load_npz",
    "write_csv",
    "RcsFile",
    "save_rcs",
    "open_rcs",
    "load_rcs",
    "zone_map",
    "CODECS",
    "ColumnarFormatError",
    "compression_mode",
    "decode_column",
    "encode_column",
]
