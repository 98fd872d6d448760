"""The benchmark harness: one experiment per paper table/figure.

Each experiment in :mod:`repro.bench.experiments` regenerates the rows or
series of one artifact from the paper's Sect. 7 at laptop scale.  The
``benchmarks/`` directory wires them into pytest-benchmark; results are
also written as text reports under ``benchmarks/results/``.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "harness": ("BenchScale", "DatasetCache", "run_grid_method", "run_method"),
    "report": (
        "format_series", "format_table", "series_to_csv", "write_csv",
        "write_report",
    ),
})
