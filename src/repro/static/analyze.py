"""Per-variable static range reports from one abstract run.

Attribution works through format *names*: :class:`repro.core.FPFormat`
compares only on ``(exp_bits, man_bits)`` (``name`` is ``compare=False``),
so binding every program variable to a named clone --
``FPFormat(11, 52, name="binary64@kernel")`` -- runs the app with
arithmetic identical to plain binary64 while every quantization site the
ops layer sees carries the owning variable's name.  The
:class:`~repro.static.domain.AnalysisLog` accumulates interval hulls per
name; this module folds them into :class:`StaticRangeReport`.

What is *guaranteed* vs *observed*:

* interval hulls (``lo``/``hi``) soundly cover the values each variable's
  region holds under any standard-format binding, except for the
  ``(variable, format)`` pairs listed in ``saturating_formats`` (where a
  narrow format may saturate to infinity);
* ``certain-overflow`` certificates derive from *exact program inputs*
  recorded before any collapse (radius zero): those raw values exist
  under every binding, so a format whose rounding threshold they exceed
  is infeasible for that variable regardless of what the rest of the
  program does;
* a report is ``exact`` when no collapsed value could have re-entered
  the emulated computation (trailing output escapes are fine); inexact
  reports keep the sound binding-independent *input* facts but publish
  unbounded hulls -- once control flow or data depends on a collapsed
  value, per-binding trajectories can diverge arbitrarily, and no finite
  widening margin is a guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.context import ExecutionContext, activate_context
from repro.core.formats import BINARY64, STANDARD_FORMATS, FPFormat

from .domain import AbstractBackend, AnalysisLog

__all__ = [
    "MARKER_SEP",
    "VariableRange",
    "StaticRangeReport",
    "marker_binding",
    "named_binding",
    "variable_of",
    "analyze_program",
]

#: Separator between a format's base name and the owning variable.
MARKER_SEP = "@"


def named_binding(
    program, binding: Mapping[str, FPFormat]
) -> dict[str, FPFormat]:
    """Clone a binding with per-variable marker names.

    The clones are ``==`` the originals (arithmetic, caches and
    ``wider()`` tie-breaks are unchanged), but every quantization site
    reports the owning variable.
    """
    return {
        spec.name: FPFormat(
            binding[spec.name].exp_bits,
            binding[spec.name].man_bits,
            name=f"{binding[spec.name].name}{MARKER_SEP}{spec.name}",
        )
        for spec in program.variables()
    }


def marker_binding(program) -> dict[str, FPFormat]:
    """The analysis binding: binary64 clones named per variable."""
    return named_binding(
        program, {spec.name: BINARY64 for spec in program.variables()}
    )


def variable_of(fmt_name: str) -> "str | None":
    """The variable a marker format name attributes to (or None)."""
    if MARKER_SEP in fmt_name:
        return fmt_name.rsplit(MARKER_SEP, 1)[1]
    return None


def _overflow_exponent(mag: float) -> int:
    """Smallest ``emax`` a format needs so ``mag`` cannot round to inf.

    A magnitude ``>= 2**(emax + 1)`` always rounds to infinity under
    round-to-nearest-even, so the format needs ``2**(emax + 1) > mag``.
    """
    if mag <= 0.0 or not math.isfinite(mag):
        return 0
    return max(math.frexp(mag)[1] - 1, 0)


def _exp_bits_for_emax(emax: int) -> int:
    e = 1
    while 2 ** (e - 1) - 1 < emax:
        e += 1
    return e


@dataclass(frozen=True)
class VariableRange:
    """The static verdict for one tunable variable."""

    name: str
    #: Sound hull of every value the variable's region holds (already
    #: widened when the analysis is inexact).
    lo: float
    hi: float
    #: True when no collapse happened anywhere in the program run.
    exact: bool
    #: A magnitude some stored element certainly reaches (0 if unknown).
    guaranteed_mag: float
    #: Hull and peak magnitude of the exact raw inputs feeding the
    #: variable (binding-independent; +-inf/0 when it has none).
    input_lo: float
    input_hi: float
    input_mag: float
    #: Exponent bits any format must have for this variable's inputs
    #: not to certainly overflow.
    exp_bits_lower_bound: int
    #: Per standard-format verdicts: "certain-overflow", "may-saturate"
    #: or "ok".
    certificates: dict[str, str] = field(default_factory=dict)
    #: Family formats that may saturate on this variable's values.
    saturating_formats: tuple[str, ...] = ()
    sites: int = 0

    def infeasible(self) -> tuple[str, ...]:
        """Format names certified infeasible for this variable."""
        return tuple(
            name
            for name, verdict in self.certificates.items()
            if verdict == "certain-overflow"
        )

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "lo": self.lo,
            "hi": self.hi,
            "exact": self.exact,
            "guaranteed_mag": self.guaranteed_mag,
            "input_lo": self.input_lo,
            "input_hi": self.input_hi,
            "input_mag": self.input_mag,
            "exp_bits_lower_bound": self.exp_bits_lower_bound,
            "certificates": dict(self.certificates),
            "saturating_formats": list(self.saturating_formats),
            "sites": self.sites,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "VariableRange":
        return cls(
            name=payload["name"],
            lo=float(payload["lo"]),
            hi=float(payload["hi"]),
            exact=bool(payload["exact"]),
            guaranteed_mag=float(payload["guaranteed_mag"]),
            input_lo=float(payload["input_lo"]),
            input_hi=float(payload["input_hi"]),
            input_mag=float(payload["input_mag"]),
            exp_bits_lower_bound=int(payload["exp_bits_lower_bound"]),
            certificates=dict(payload["certificates"]),
            saturating_formats=tuple(payload["saturating_formats"]),
            sites=int(payload["sites"]),
        )


@dataclass(frozen=True)
class StaticRangeReport:
    """One abstract run's verdicts for every variable of a program."""

    program: str
    input_id: int
    exact: bool
    variables: dict[str, VariableRange]
    #: Variables whose region divided by an interval containing zero.
    div_by_zero: tuple[str, ...] = ()
    #: Variables whose region saw catastrophic cancellation.
    cancellation: tuple[str, ...] = ()
    scalar_collapses: int = 0
    array_collapses: int = 0

    def infeasible_formats(self, variable: str) -> tuple[str, ...]:
        """Certified-infeasible standard formats for one variable."""
        return self.variables[variable].infeasible()

    def to_payload(self) -> dict:
        return {
            "program": self.program,
            "input_id": self.input_id,
            "exact": self.exact,
            "variables": {
                name: var.to_payload()
                for name, var in self.variables.items()
            },
            "div_by_zero": list(self.div_by_zero),
            "cancellation": list(self.cancellation),
            "scalar_collapses": self.scalar_collapses,
            "array_collapses": self.array_collapses,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StaticRangeReport":
        return cls(
            program=payload["program"],
            input_id=int(payload["input_id"]),
            exact=bool(payload["exact"]),
            variables={
                name: VariableRange.from_payload(var)
                for name, var in payload["variables"].items()
            },
            div_by_zero=tuple(payload["div_by_zero"]),
            cancellation=tuple(payload["cancellation"]),
            scalar_collapses=int(payload["scalar_collapses"]),
            array_collapses=int(payload["array_collapses"]),
        )


class _SiteView:
    """Site-shaped stand-in for variables without a named storage site."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi

    input_lo = math.inf
    input_hi = -math.inf
    input_max_mag = 0.0
    max_guaranteed_mag = 0.0
    count = 0


def analyze_program(
    program,
    input_id: int = 0,
    family: "tuple[FPFormat, ...] | None" = None,
) -> StaticRangeReport:
    """Run ``program`` abstractly and fold the log into a report."""
    log = AnalysisLog()
    backend = AbstractBackend(family=family, log=log)
    binding = marker_binding(program)
    # A fresh context: the abstract run must not pollute any active
    # statistics collectors (its op counts are not real executions).
    with activate_context(ExecutionContext(backend)):
        program.run(binding, input_id)

    exact = not log.collapsed
    variables: dict[str, VariableRange] = {}
    div_vars: set[str] = set()
    cancel_vars: set[str] = set()
    for fmt_name in log.div_by_zero:
        var = variable_of(fmt_name)
        if var is not None:
            div_vars.add(var)
    for fmt_name in log.cancellations:
        var = variable_of(fmt_name)
        if var is not None:
            cancel_vars.add(var)
    saturating: dict[str, set[str]] = {}
    for site_name, family_name in log.saturations:
        var = variable_of(site_name)
        if var is not None:
            saturating.setdefault(var, set()).add(family_name)

    # Fallback hull for variables without a named storage site (a region
    # whose cast was skipped because the marker formats compare equal,
    # e.g. a pure output accumulator): the union of every recorded site
    # and every escaping (collapsed) value still soundly covers them --
    # any value a region holds was either stored through some site or
    # escaped to the caller.
    fallback_lo = min(
        [s.lo for s in log.sites.values() if s.count] + [log.collapse_lo],
        default=math.inf,
    )
    fallback_hi = max(
        [s.hi for s in log.sites.values() if s.count] + [log.collapse_hi],
        default=-math.inf,
    )
    if fallback_lo > fallback_hi:
        fallback_lo, fallback_hi = -math.inf, math.inf

    for spec in program.variables():
        site = log.sites.get(binding[spec.name].name)
        if site is None or site.count == 0:
            site = _SiteView(fallback_lo, fallback_hi)
        lo, hi = site.lo, site.hi
        if not exact:
            # A tainted run's per-binding trajectories can diverge
            # arbitrarily; only the unbounded hull is still sound.
            lo, hi = -math.inf, math.inf
        # Binding-independent guarantees come from the raw inputs; the
        # computed guarantee is only usable when the run stayed exact.
        guaranteed = site.input_max_mag
        if exact:
            guaranteed = max(guaranteed, site.max_guaranteed_mag)
        emax_needed = _overflow_exponent(site.input_max_mag)
        sat = tuple(sorted(saturating.get(spec.name, ())))
        certificates: dict[str, str] = {}
        input_emax = _overflow_exponent(site.input_max_mag)
        peak = max(abs(lo), abs(hi))
        for f in STANDARD_FORMATS:
            # mag >= 2**(emax+1) compared in the exponent domain (the
            # power itself overflows float64 for binary64).
            if site.input_max_mag > 0.0 and input_emax >= f.emax + 1:
                certificates[f.name] = "certain-overflow"
            elif f == BINARY64:
                # The analysis runs on a binary64 carrier: it can never
                # certify that binary64 itself saturates.
                certificates[f.name] = "ok"
            elif f.name in sat or not math.isfinite(peak) or (
                peak > f.max_value
            ):
                certificates[f.name] = "may-saturate"
            else:
                certificates[f.name] = "ok"
        variables[spec.name] = VariableRange(
            name=spec.name,
            lo=lo,
            hi=hi,
            exact=exact,
            guaranteed_mag=guaranteed,
            input_lo=site.input_lo,
            input_hi=site.input_hi,
            input_mag=site.input_max_mag,
            exp_bits_lower_bound=_exp_bits_for_emax(emax_needed),
            certificates=certificates,
            saturating_formats=sat,
            sites=site.count,
        )

    return StaticRangeReport(
        program=program.name,
        input_id=input_id,
        exact=exact,
        variables=variables,
        div_by_zero=tuple(sorted(div_vars)),
        cancellation=tuple(sorted(cancel_vars)),
        scalar_collapses=log.scalar_collapses,
        array_collapses=log.array_collapses,
    )
