"""Result analysis: tables, ASCII plots, CPU breakdowns, curve metrics."""

from .ascii_plot import logx_plot
from .cpu_report import breakdown_table, categorize, cpu_breakdown
from .metrics import interpolate_half_bandwidth, size_reaching
from .tables import format_series_table, format_table

__all__ = [
    "breakdown_table",
    "categorize",
    "cpu_breakdown",
    "format_series_table",
    "format_table",
    "interpolate_half_bandwidth",
    "logx_plot",
    "size_reaching",
]
