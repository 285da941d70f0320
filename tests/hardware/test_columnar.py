"""Bit-identity gates for the columnar replay engine.

The columnar engine (``repro.hardware.columnar``) implements every
per-instruction analytic -- timing, energy split, memory statistics,
instruction mix, report counters -- as array kernels over a lowered
:class:`ProgramColumns`.  The per-``Instr`` loops in ``tests/oracles.py``
are the reference; these tests pin the engine to *byte-identical*
results (object equality, payload equality, and even dict key order,
so a JSON rendering cannot drift) across every application kernel,
format binding and latency override the experiment drivers use.
"""

import functools
import json

import pytest

from repro.apps import APP_NAMES, make_app
from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.hardware import (
    DEFAULT_ENERGY_MODEL,
    EnergyModel,
    Instr,
    Kind,
    Program,
    VirtualPlatform,
    assemble_report,
    count_memory_columns,
    instruction_mix,
    lower_instrs,
    simulate_timing_columns,
)
from repro.hardware.columnar import (
    energy_split_columns,
    fp_cast_counters_columns,
)

from tests.oracles import (
    assemble_report_legacy,
    count_memory,
    energy_split,
    instruction_mix_legacy,
    simulate_timing,
)

UNIFORM_FORMATS = (BINARY8, BINARY16, BINARY16ALT, BINARY32)
OVERRIDES = (
    None,
    {"binary32": 7},
    {"binary8": 1, "binary16": 2, "binary16alt": 2, "binary32": 9},
)


@functools.cache
def build_programs(app_name):
    """Baseline binding plus every uniform binding of one app (built
    once per module: programs are read-only once built)."""
    app = make_app(app_name, "tiny")
    bindings = [app.baseline_binding()]
    for fmt in UNIFORM_FORMATS:
        bindings.append(dict.fromkeys(app.baseline_binding(), fmt))
    return tuple(app.build_program(binding) for binding in bindings)


class TestTimingParity:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_every_app_every_binding(self, app_name):
        for program in build_programs(app_name):
            legacy = simulate_timing(program.instrs)
            columnar = simulate_timing_columns(program.columns())
            assert columnar == legacy
            assert columnar.to_payload() == legacy.to_payload()
            # Even the class-key insertion order must match, so JSON
            # renderings of the two timings are byte-identical.
            assert list(columnar.cycles_by_class) == list(
                legacy.cycles_by_class
            )

    @pytest.mark.parametrize("app_name", APP_NAMES)
    @pytest.mark.parametrize("override", OVERRIDES[1:])
    def test_latency_override(self, app_name, override):
        app = make_app(app_name, "tiny")
        program = app.build_program(app.baseline_binding())
        assert simulate_timing_columns(
            program.columns(), override
        ) == simulate_timing(program.instrs, override)

    def test_empty_stream(self):
        assert simulate_timing_columns(lower_instrs([])) == simulate_timing(
            []
        )


class TestReportParity:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_full_report_payloads(self, app_name):
        for program in build_programs(app_name):
            timing = simulate_timing(program.instrs)
            columnar = assemble_report(program, timing)
            legacy = assemble_report_legacy(
                program, timing, DEFAULT_ENERGY_MODEL
            )
            assert columnar.to_payload() == legacy.to_payload()
            # Exact float equality, not approx: the columnar energy
            # split must reproduce the loop's accumulation bit for bit.
            assert columnar.energy == legacy.energy
            assert columnar.fp_instrs == legacy.fp_instrs
            assert columnar.cast_instrs == legacy.cast_instrs

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_memory_stats_and_key_order(self, app_name):
        for program in build_programs(app_name):
            legacy = count_memory(program.instrs)
            columnar = count_memory_columns(program.columns())
            assert columnar == legacy
            assert columnar.to_payload() == legacy.to_payload()
            assert list(columnar.by_element_bits) == list(
                legacy.by_element_bits
            )

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_instruction_mix(self, app_name):
        for program in build_programs(app_name):
            mix = instruction_mix(program)
            legacy = instruction_mix_legacy(program)
            assert mix == legacy
            assert list(mix.by_kind) == list(legacy.by_kind)
            assert list(mix.fp_by_format) == list(legacy.fp_by_format)

    @pytest.mark.parametrize("app_name", APP_NAMES)
    @pytest.mark.parametrize("override", OVERRIDES)
    def test_platform_run_matches_oracle(self, app_name, override):
        """``VirtualPlatform.run`` renders the reference JSON byte for
        byte: every app x binding x latency override."""
        platform = VirtualPlatform(fp_latency_override=override)
        for program in build_programs(app_name):
            legacy = assemble_report_legacy(
                program,
                simulate_timing(program.instrs, override),
                DEFAULT_ENERGY_MODEL,
            )
            assert json.dumps(platform.run(program).to_payload()) == (
                json.dumps(legacy.to_payload())
            )


class TestOneReplayPath:
    @pytest.mark.parametrize("value", ["legacy", "bogus"])
    def test_stale_engine_env_var_is_ignored(self, monkeypatch, value):
        """``REPRO_ENGINE`` no longer selects anything: a value left in
        a shell neither raises nor changes a single report byte."""
        platform = VirtualPlatform()
        programs = build_programs("dwt")
        expected = [
            json.dumps(platform.run(program).to_payload())
            for program in programs
        ]
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert [
            json.dumps(platform.run(program).to_payload())
            for program in programs
        ] == expected


class TestEnergyConstants:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_constant_overrides_stay_columnar(self, app_name):
        """The gather tables take every constant from the model: a
        model with all three constants changed still matches the
        per-``Instr`` split bit for bit."""
        model = EnergyModel(issue_pj=1.0, stall_pj=0.5, dmem_access_pj=20.0)
        for program in build_programs(app_name):
            timing = simulate_timing(program.instrs)
            columnar = energy_split_columns(
                model, program.columns(), timing.stall_cycles
            )
            assert columnar == energy_split(
                model, program.instrs, timing.stall_cycles
            )


class TestLoweringCache:
    def test_columns_cached_on_program(self):
        app = make_app("conv", "tiny")
        program = app.build_program(app.baseline_binding())
        assert program.columns() is program.columns()

    def test_latencies_memoized_per_override(self):
        app = make_app("knn", "tiny")
        columns = app.build_program(app.baseline_binding()).columns()
        assert columns.latencies(None) is columns.latencies(None)
        override = {"binary32": 7}
        assert columns.latencies(override) is columns.latencies(
            dict(override)
        )
        assert columns.latencies(override) is not columns.latencies(None)

    def test_lowering_matches_stream_length(self):
        instrs = [
            Instr(Kind.LI, dst=0),
            Instr(Kind.FP, dst=1, srcs=(0, 0), op="add", fmt=BINARY32),
            Instr(Kind.STORE, srcs=(1,), fmt=BINARY32, width=4),
        ]
        columns = lower_instrs(instrs)
        assert columns.n == len(instrs)
        program = Program("synthetic", instrs, {})
        fp, casts = fp_cast_counters_columns(columns)
        legacy = assemble_report_legacy(
            program, simulate_timing(instrs), DEFAULT_ENERGY_MODEL
        )
        assert fp == legacy.fp_instrs
        assert casts == legacy.cast_instrs
