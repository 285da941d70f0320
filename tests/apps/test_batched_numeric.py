"""Every app's numeric form against its one-binding oracle.

Each app writes its numeric form over a leading candidate axis
(``run_numeric_batch``); pca also computes every covariance cell in one
product and one row-wise tree sum and its deflation as one outer
product, and svm puts all queries on one axis.  Rounding, operation
counts and casts must be exactly those of the oracles in
:data:`tests.oracles.NUMERIC_ORACLES` (pca and svm loop over cells and
queries; conv, dwt, jacobi and knn are the ``FlexFloatArray`` forms they
had before): the same output bytes -- signs of zero, NaN and infinity
included -- and the same ``Stats`` payload, for a lone run and for each
row of the whole pool run as one batch, on both backends.
"""

import numpy as np
import pytest

from repro import Session
from repro.apps import make_app
from repro.apps.pca import PcaApp
from repro.core import BINARY16, BINARY64, FPFormat, Stats
from repro.tuning import V1, V2
from tests.oracles import NUMERIC_ORACLES


def bindings(app, seed):
    """Baseline, binary64, seeded V1/V2 search and storage bindings, one
    format so narrow that values overflow to inf and NaN, and two that
    alternate a 4-bit format with binary16 across the variables (each
    variable is the narrow one in one of them): their regions pack, and
    the casts between the two formats over- and underflow (to inf and
    to signed zeros)."""
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
    for narrow in (0, 1):
        out.append({
            name: FPFormat(2, 1) if i % 2 == narrow else BINARY16
            for i, name in enumerate(names)
        })
    return out


def run(session, form, binding, input_id):
    stats = Stats()
    with session, session.collect(stats):
        out = form(binding, input_id)
    return np.asarray(out).tobytes(), stats.to_payload()


CASES = [
    ("pca", lambda scale: PcaApp(scale)),
    ("pca-manual", lambda scale: PcaApp(scale, manual_vectorize=True)),
] + [
    (name, lambda scale, name=name: make_app(name, scale))
    for name in ("svm", "conv", "dwt", "jacobi", "knn")
]


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize(
    "make", [case[1] for case in CASES], ids=[case[0] for case in CASES]
)
def test_batched_form_equals_oracle(backend, scale, make):
    app = make(scale)
    oracle = NUMERIC_ORACLES[app.name]
    session = Session(backend=backend)
    pool = bindings(app, seed=len(scale))
    for input_id in range(app.num_inputs):
        want = [
            run(session, lambda b, i: oracle(app, b, i), binding, input_id)
            for binding in pool
        ]
        for binding, expected in zip(pool, want):
            got = run(session, app.run_numeric, binding, input_id)
            assert got == expected, (binding, input_id)

        stats = Stats()
        with session, session.collect(stats):
            rows = app.run_numeric_batch(pool, input_id)
        assert [row.tobytes() for row in rows] == [out for out, _ in want]
        total = Stats()
        for _, payload in want:
            total = total.merged_with(Stats.from_payload(payload))
        assert stats.to_payload() == total.to_payload(), input_id


def test_narrow_binding_reaches_special_values():
    app = PcaApp("tiny")
    narrow = bindings(app, seed=0)[-3]
    with Session(backend="fast"):
        out = app.run_numeric(narrow, 0)
    assert not np.isfinite(out).all()
