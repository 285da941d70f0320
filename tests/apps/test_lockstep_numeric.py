"""pca's lockstep numeric form: every row of a batch is its lone run.

``PcaApp.run_numeric_batch`` runs several bindings in one pass, one row
of a leading candidate axis each, resolving every region, cast and
vector flag per row.  Row ``r`` of its output must be byte-equal to
``run_numeric(bindings[r])``, and the ``Stats`` a collector receives
from a batch must be the sum of the rows' lone runs -- for batches of 1
to 6 rows with one row repeated, over search and storage bindings,
binary64, the baseline and a format narrow enough to overflow, with and
without manual vectorization, on every input, at tiny and small scale,
on both backends (each scale and backend sees every size from 1 to 6).  The default ``run_numeric_batch`` of the other apps
loops over ``run_numeric`` under the same contract.
"""

import numpy as np
import pytest

from repro import Session
from repro.apps import make_app
from repro.apps.pca import PcaApp
from repro.core import Stats
from tests.apps.test_batched_numeric import bindings


def batch(pool, input_id, manual):
    """A batch drawn from ``pool``: sizes 1, 2 and 3 for inputs 0, 1 and
    2 without manual vectorization, 4, 5 and 6 with it; from two rows
    on, the last row repeats the first."""
    size = input_id + 1 + 3 * manual
    rng = np.random.default_rng(input_id)
    picked = [pool[int(i)] for i in rng.integers(0, len(pool), size)]
    if size > 1:
        picked[-1] = picked[0]
    return picked


def lone(session, app, binding, input_id):
    stats = Stats()
    with session, session.collect(stats):
        out = app.run_numeric(binding, input_id)
    return out.tobytes(), stats


def batched(session, app, batch, input_id):
    stats = Stats()
    with session, session.collect(stats):
        outs = app.run_numeric_batch(batch, input_id)
    return [out.tobytes() for out in outs], stats


def summed(stats_list) -> Stats:
    total = Stats()
    for stats in stats_list:
        total = total.merged_with(stats)
    return total


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("manual", [False, True], ids=["auto", "manual"])
def test_pca_batch_rows_equal_lone_runs(backend, scale, manual):
    app = PcaApp(scale, manual_vectorize=manual)
    session = Session(backend=backend)
    pool = bindings(app, seed=len(scale) + manual)
    for input_id in range(app.num_inputs):
        rows = batch(pool, input_id, manual)
        outs, stats = batched(session, app, rows, input_id)
        runs = {}
        for binding in rows:
            if id(binding) not in runs:
                runs[id(binding)] = lone(session, app, binding, input_id)
        want = [runs[id(binding)] for binding in rows]
        assert outs == [out for out, _ in want], (rows, input_id)
        assert stats.to_payload() == summed(
            [s for _, s in want]
        ).to_payload(), (rows, input_id)


@pytest.mark.parametrize("name", ["svm", "dwt"])
def test_default_batch_loops_run_numeric(name):
    app = make_app(name, "tiny")
    session = Session(backend="fast")
    pool = bindings(app, seed=1)
    outs, stats = batched(session, app, pool[:4] + pool[:1], 1)
    want = [lone(session, app, b, 1) for b in pool[:4] + pool[:1]]
    assert outs == [out for out, _ in want]
    assert stats.to_payload() == summed([s for _, s in want]).to_payload()
