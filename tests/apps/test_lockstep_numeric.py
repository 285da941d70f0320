"""Lockstep numeric forms: every row of a batch is its lone run.

Each app's ``run_numeric_batch`` runs several bindings in one pass, one
row of a leading candidate axis each, resolving every region, cast and
vector flag per row.  Row ``r`` of its output must be byte-equal to
``run_numeric(bindings[r])`` (a batch of one), and the ``Stats`` a
collector receives from a batch must be the sum of the rows' lone runs
-- for batches of 1 to 6 rows with one row repeated, over search and
storage bindings, binary64, the baseline and formats narrow enough to
overflow, on every input, at tiny and small scale, on both backends
(each app, scale and backend sees every size from 1 to 6; pca with and
without manual vectorization).
"""

import numpy as np
import pytest

from repro import Session
from repro.apps import make_app
from repro.apps.base import Lockstep
from repro.apps.pca import PcaApp
from repro.core import BINARY8, FPFormat, Stats
from tests.apps.test_batched_numeric import bindings


def batch(pool, size):
    """A batch of ``size`` rows drawn from ``pool`` (seeded by the size);
    from two rows on, the last row repeats the first."""
    rng = np.random.default_rng(size)
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


def check_batches(session, app, pool, sizes):
    """Run one batch per input and size; compare it with lone runs."""
    for input_id in range(app.num_inputs):
        for size in sizes(input_id):
            rows = batch(pool, size)
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


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("manual", [False, True], ids=["auto", "manual"])
def test_pca_batch_rows_equal_lone_runs(backend, scale, manual):
    """Sizes 1, 2 and 3 for inputs 0, 1 and 2 without manual
    vectorization, 4, 5 and 6 with it."""
    app = PcaApp(scale, manual_vectorize=manual)
    pool = bindings(app, seed=len(scale) + manual)
    check_batches(
        Session(backend=backend), app, pool,
        lambda input_id: [input_id + 1 + 3 * manual],
    )


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("name", ["svm", "conv", "dwt", "jacobi", "knn"])
def test_batch_rows_equal_lone_runs(backend, scale, name):
    """Sizes 1 and 4, 2 and 5, 3 and 6 for inputs 0, 1 and 2."""
    app = make_app(name, scale)
    pool = bindings(app, seed=len(scale))
    check_batches(
        Session(backend=backend), app, pool,
        lambda input_id: [input_id + 1, input_id + 4],
    )


def test_format_rows_are_interned_by_value_and_name():
    """Runs share their FormatRows objects, so the fast backend's
    identity-keyed per-row columns are built once; a format equal by
    value under another name (``Stats`` keys on the name) is not
    folded into it."""
    app = make_app("conv", "tiny")
    names = [spec.name for spec in app.variables()]
    plain = [{name: BINARY8 for name in names}, app.baseline_binding()]
    octet = FPFormat(BINARY8.exp_bits, BINARY8.man_bits, name="octet")
    renamed = [{name: octet for name in names}, app.baseline_binding()]

    def region(batch):
        lock = Lockstep(app, batch)
        return lock.wider(lock.formats("image"), lock.formats("kernel"))

    assert region(plain) is region([dict(b) for b in plain])
    assert region(renamed) is not region(plain)
    assert region(renamed) == region(plain)

    session = Session(backend="fast")
    outs, stats = batched(session, app, renamed, 0)
    assert outs == batched(session, app, plain, 0)[0]
    assert {key.fmt for key in stats.ops} == {"octet", "binary32"}
