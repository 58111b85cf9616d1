"""Quantile estimation and result-table rendering for experiments."""

from .quantiles import max_from_buckets, quantile_from_buckets
from .table import format_value, render_metrics, render_table, render_traffic

__all__ = ["format_value", "max_from_buckets", "quantile_from_buckets",
           "render_metrics", "render_table", "render_traffic"]
