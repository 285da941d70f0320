"""The five-step transprecision programming flow (paper Fig. 2)."""

from repro.session import default_cache_dir

from .steps import FlowResult, TransprecisionFlow

__all__ = ["FlowResult", "TransprecisionFlow", "default_cache_dir"]
