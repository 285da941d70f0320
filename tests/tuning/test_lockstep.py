"""The lockstep greedy search against the sequential one.

:class:`DistributedSearch` runs each step of the per-variable bisections
and each repair step's trials as one batched program run
(``run_numeric_batch``); :class:`tests.oracles.SequentialSearch` keeps
the search that evaluated one candidate at a time.  A batch only warms
the session memo, so the two must agree exactly: equal
``TuningResult`` payloads (precision, achieved SQNR, evaluations) for
``greedy`` and ``cast_aware``, the same session-memo keys, and under a
budget too small for the search the same ``BudgetExceededError`` at the
same evaluation.  Each search runs in its own session, so neither is
served the other's runs.
"""

import functools
import json

import pytest

from repro import Session, telemetry
from repro.apps import make_app
from repro.tuning import (
    V1,
    V2,
    BudgetExceededError,
    CastAwareSearch,
    DistributedSearch,
    precision_to_sqnr_db,
)
from tests.oracles import SequentialCastAwareSearch, SequentialSearch

#: (app, scale, type system, precision): every tiny pca/svm/dwt point,
#: and pca at small scale where the repair runs longest.
GRID = [
    (app, "tiny", ts, precision)
    for app in ("pca", "svm", "dwt")
    for ts in (V1, V2)
    for precision in (1e-1, 1e-2, 1e-3)
] + [("pca", "small", V1, 1e-1), ("pca", "small", V2, 1e-1)]


@functools.cache
def cast_aware(cls, app, scale, ts, precision):
    """A cast-aware search in a fresh session: the payloads of its greedy
    phase (``tune``) and of its result, and the session-memo keys.
    Cached, so the budget test reuses the grid's searches."""
    greedy = []

    class Recording(cls):
        def tune(self, input_ids=None):
            result = super().tune(input_ids)
            greedy.append(result.to_payload())
            return result

    session = Session(backend="fast")
    search = Recording(
        make_app(app, scale), ts, precision_to_sqnr_db(precision)
    )
    with session:
        result = search.tune_cast_aware().to_payload()
    return greedy, result, set(session.context.memo)


def grid_id(point):
    app, scale, ts, precision = point
    return f"{app}-{scale}-{ts.name}-{precision:g}"


@pytest.mark.parametrize("point", GRID, ids=grid_id)
def test_lockstep_equals_sequential(point):
    """greedy (the cast-aware search's first phase) and cast_aware."""
    got = cast_aware(CastAwareSearch, *point)
    want = cast_aware(SequentialCastAwareSearch, *point)
    assert got == want


@pytest.mark.parametrize(
    "point",
    [("pca", "tiny", V1, 1e-1), ("svm", "tiny", V1, 1e-3)],
    ids=grid_id,
)
def test_budget_trips_at_the_same_evaluation(point):
    app, scale, ts, precision = point
    target = precision_to_sqnr_db(precision)
    greedy, _, _ = cast_aware(CastAwareSearch, *point)
    needed = greedy[0]["evaluations"]
    outcomes = []
    # Cuts inside phase 2 and inside the repair.
    for budget in (needed // 3, needed - 1):
        for cls in (DistributedSearch, SequentialSearch):
            search = cls(make_app(app, scale), ts, target, budget=budget)
            with Session(backend="fast"):
                with pytest.raises(BudgetExceededError) as info:
                    search.tune()
            outcomes.append((budget, str(info.value), search.evaluations))
    assert outcomes[0] == outcomes[1]
    assert outcomes[2] == outcomes[3]
    assert outcomes[0][2] == needed // 3


def test_evaluate_spans_count_every_memo_miss(tmp_path):
    """One ``tuning.evaluate`` span per program run: its ``rows`` sum to
    the session-memo misses, and repair steps run more than one row."""
    telemetry.enable(export_dir=tmp_path)
    session = Session(backend="fast")
    app = make_app("pca", "tiny")
    try:
        with session:
            DistributedSearch(app, V2, precision_to_sqnr_db(1e-2)).tune()
        telemetry.flush()
    finally:
        telemetry.disable()
    records = [
        json.loads(line)
        for path in tmp_path.glob("trace-*.ndjson")
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    spans = [
        r for r in records
        if r["kind"] == "span" and r["name"] == "tuning.evaluate"
    ]
    # SQNR entries are keyed (backend, program, input, formats); the
    # reference outputs (backend, program, input) are not tuner runs.
    misses = sum(1 for key in session.context.memo if len(key) == 4)
    assert sum(sp["attrs"]["rows"] for sp in spans) == misses
    assert max(sp["attrs"]["rows"] for sp in spans) > 1
    for sp in spans:
        assert sp["attrs"]["program"] == "pca"
        assert ("sqnr_db" in sp["attrs"]) == (sp["attrs"]["rows"] == 1)
