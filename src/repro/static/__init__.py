"""Static range analysis: abstract interpretation over the ops-dispatch seam.

The PR-1 backend protocol routes every scalar/array operation, cast and
reduction of the emulation types through one seam
(:mod:`repro.core.ops`).  This package exploits that seam to run the
*unmodified* applications on abstract values:

* :mod:`repro.static.domain` -- the centered-interval abstract domain
  ``[center, radius]`` and :class:`AbstractBackend`, a
  :class:`repro.core.backend.Backend` whose payloads carry a sound
  per-element error bound through every operation;
* :mod:`repro.static.analyze` -- per-variable
  :class:`StaticRangeReport`\\ s: guaranteed exponent-bit lower bounds,
  per-format overflow/saturation certificates, division-by-zero-interval
  and catastrophic-cancellation flags;
* :mod:`repro.static.soundness` -- the sanitizer-style harness
  cross-checking static bounds against dynamically observed ranges.
"""

from .analyze import (
    StaticRangeReport,
    VariableRange,
    analyze_program,
    marker_binding,
    named_binding,
)
from .domain import AbstractBackend, AbstractScalar, AnalysisLog
from .soundness import RecordingBackend, check_soundness, observe_ranges

__all__ = [
    "AbstractBackend",
    "AbstractScalar",
    "AnalysisLog",
    "StaticRangeReport",
    "VariableRange",
    "analyze_program",
    "marker_binding",
    "named_binding",
    "RecordingBackend",
    "check_soundness",
    "observe_ranges",
]
