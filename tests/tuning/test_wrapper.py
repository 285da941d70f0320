"""Tests for the files and steps the paper's FlexFloat wrapper provides.

The wrapper (paper §III-A) reads one precision per variable from a file,
takes each precision's exponent width from an interval map, and runs
the program with the resulting formats.  It is not reproduced as a
tool: the flow calls the search directly.  Its parts are:

* the per-variable precision file -- the tuning cache file, which the
  flow writes after a search and reads instead of searching again;
* the interval map -- a :class:`~repro.tuning.TypeSystem`, shipped to
  runner workers as a JSON payload;
* steps 2 and 3 -- :meth:`TypeSystem.search_format` and
  :meth:`TypeSystem.storage_format`.
"""

import json

import numpy as np
import pytest

from repro.apps import make_app
from repro.core import BINARY8, BINARY32, FPFormat
from repro.flow import TransprecisionFlow
from repro.tuning import V2, TuningResult, TypeSystem, uniform_binding
from repro.util import write_json_atomic


def cache_file(path, precision):
    """Write a tuning cache file holding ``precision``."""
    result = TuningResult(
        program="tiny", type_system="V2", target_db=20.0,
        precision=precision, achieved_db={0: 25.0}, evaluations=3,
    )
    write_json_atomic(path, result.to_payload())
    return result


def read_cache_file(path) -> TuningResult:
    """Read a tuning cache file as the flow does."""
    return TuningResult.from_payload(json.loads(path.read_text()))


class TestPrecisionFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "prec.json"
        written = cache_file(path, {"x": 7, "k": 11})
        read = read_cache_file(path)
        assert read.precision == {"x": 7, "k": 11}
        assert read == written

    def test_comments_and_blank_lines(self, tmp_path):
        # A hand-edited file: blank lines, other indentation and a
        # comment field are all ignored.
        path = tmp_path / "prec.json"
        path.write_text(
            '{\n\n  "_comment": "x is the vector",\n'
            '      "program": "tiny", "type_system": "V2",\n\n'
            '  "target_db": 20.0,\n'
            '  "precision": {"x": 7,\n\n "k": 11},\n'
            '  "achieved_db": {"0": 25.0}, "evaluations": 3\n}\n'
        )
        assert read_cache_file(path).precision == {"x": 7, "k": 11}

    def test_malformed_line_raises_with_location(self, tmp_path):
        app = make_app("conv", "tiny")
        flow = TransprecisionFlow(app, V2, 1e-1, cache_dir=tmp_path)
        path = flow._cache_path()
        path.write_text('{"program": "conv",\n  "precision": {image 7}}\n')
        with pytest.raises(ValueError, match="line 2"):
            flow.tune_report()


class TestIntervalMap:
    def test_roundtrip_through_type_system(self, tmp_path):
        path = tmp_path / "map.json"
        write_json_atomic(path, V2.to_payload())
        loaded = TypeSystem.from_payload(json.loads(path.read_text()))
        assert loaded == V2
        assert [
            (max_p, fmt.exp_bits) for max_p, fmt in loaded.intervals
        ] == [(3, 5), (8, 8), (11, 5), (24, 8)]

    def test_empty_map_raises(self):
        with pytest.raises(ValueError, match="empty"):
            TypeSystem.from_payload({"name": "none", "intervals": []})

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            TypeSystem.from_payload({"name": "bad", "intervals": [[3]]})
        with pytest.raises(ValueError, match="strictly increasing"):
            TypeSystem("bad", ((11, BINARY32), (8, BINARY32),
                               (24, BINARY32)))


class TestWrapper:
    def test_exponent_lookup_follows_paper_mapping(self):
        assert V2.search_format(3).exp_bits == 5
        assert V2.search_format(4).exp_bits == 8
        assert V2.search_format(9).exp_bits == 5
        assert V2.search_format(12).exp_bits == 8

    def test_exponent_lookup_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            V2.search_format(99)
        with pytest.raises(ValueError, match=">= 1"):
            V2.search_format(0)

    def test_binding_from_precision(self):
        precision = {"x": 3, "k": 12}
        search = {name: V2.search_format(p) for name, p in precision.items()}
        assert search == {"x": FPFormat(5, 2), "k": FPFormat(8, 11)}
        result = TuningResult("tiny", "V2", 20.0, precision)
        assert result.storage_binding(V2) == {"x": BINARY8, "k": BINARY32}

    def test_binding_rejects_missing_variable(self):
        app = make_app("conv", "tiny")
        binding = uniform_binding(app, BINARY32)
        del binding["kernel"]
        with pytest.raises(KeyError, match="misses variable 'kernel'"):
            app.run(binding)

    def test_run_from_file(self, tmp_path):
        # A cache file stands in for the search: the flow reads it, runs
        # nothing to tune, and executes its storage binding.
        app = make_app("conv", "tiny")
        flow = TransprecisionFlow(app, V2, 1e-1, cache_dir=tmp_path)
        precision = {"image": 24, "kernel": 11, "out": 24}
        cache_file(flow._cache_path(), precision)
        report = flow.tune_report()
        assert report.cached and report.result.precision == precision
        binding = report.result.storage_binding(V2)
        assert binding["kernel"].name == "binary16"
        out = app.run(binding)
        np.testing.assert_allclose(out, app.reference(), rtol=1e-2, atol=1e-2)

    def test_wrapper_accepts_raw_interval_list(self):
        ts = TypeSystem("raw", ((3, BINARY8), (24, BINARY32)))
        assert ts.search_format(2).exp_bits == 5
        assert ts.search_format(4).exp_bits == 8
