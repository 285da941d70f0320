"""The batched pca and svm numeric forms against their loop oracles.

pca computes every covariance cell in one product and one row-wise tree
sum, and its deflation as one outer product; svm puts all queries on a
leading axis.  Rounding, operation counts and casts must be exactly the
loops' (:func:`tests.oracles.pca_numeric_per_cell`,
:func:`tests.oracles.svm_numeric_per_query`): the same output bytes --
signs of zero, NaN and infinity included -- and the same ``Stats``
payload, on both backends.
"""

import numpy as np
import pytest

from repro import Session
from repro.apps import make_app
from repro.apps.pca import PcaApp
from repro.core import BINARY64, FPFormat, Stats
from repro.tuning import V1, V2
from tests.oracles import pca_numeric_per_cell, svm_numeric_per_query


def bindings(app, seed):
    """Baseline, binary64, seeded V1/V2 search and storage bindings, and
    one format so narrow that values overflow to inf and NaN."""
    names = [spec.name for spec in app.variables()]
    rng = np.random.default_rng(seed)
    out = [app.baseline_binding(), {name: BINARY64 for name in names}]
    for ts in (V1, V2):
        bits = rng.integers(1, 25, len(names))
        out.append(
            {n: ts.search_format(int(p)) for n, p in zip(names, bits)}
        )
        out.append(
            {n: ts.storage_format(int(p)) for n, p in zip(names, bits)}
        )
    out.append({name: FPFormat(2, 4) for name in names})
    return out


def run(session, form, binding, input_id):
    stats = Stats()
    with session, session.collect(stats):
        out = form(binding, input_id)
    return np.asarray(out).tobytes(), stats.to_payload()


CASES = [
    ("pca", lambda scale: PcaApp(scale), pca_numeric_per_cell),
    (
        "pca-manual",
        lambda scale: PcaApp(scale, manual_vectorize=True),
        pca_numeric_per_cell,
    ),
    ("svm", lambda scale: make_app("svm", scale), svm_numeric_per_query),
]


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize(
    "make, oracle", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_batched_form_equals_oracle(backend, scale, make, oracle):
    app = make(scale)
    session = Session(backend=backend)
    for binding in bindings(app, seed=len(scale)):
        for input_id in range(app.num_inputs):
            got = run(session, app.run_numeric, binding, input_id)
            want = run(
                session,
                lambda b, i: oracle(app, b, i),
                binding,
                input_id,
            )
            assert got == want, (binding, input_id)


def test_narrow_binding_reaches_special_values():
    app = PcaApp("tiny")
    narrow = bindings(app, seed=0)[-1]
    with Session(backend="fast"):
        out = app.run_numeric(narrow, 0)
    assert not np.isfinite(out).all()
