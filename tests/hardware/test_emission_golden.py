"""Golden digests of the emitted kernel streams.

The columnar oracle tests compare two readings of one emitted stream, so
on their own they cannot notice an emission bug (a wrong width, a
mis-interned format, a lost source register).  These digests pin what
the builder emits, field by field, together with the values the kernel
computes and the report of its cast-free variant, for every app at the
small scale under the binary32 scalar binding and the four uniform
vectorized bindings, and for the multi-core partitions of the
partitionable apps.  Builds run on the ``fast`` backend, through the
value oracle (:func:`tests.oracles.kernel_values`): the streams are the
shipped builder's, the outputs the oracle's.

A digest change means the emitted streams, the kernel outputs or the
replay moved: that is never a refactoring's business.

The paper-scale digests pin the apps whose loop nests are swept
(:meth:`~repro.hardware.KernelBuilder.sweep`), where iteration counts
are large enough for every layout stride to matter.  They read the
expanded stream (rows, sources, register count, intern tables) and the
output arrays, and skip the replay, which emission does not touch.
"""

import hashlib
import json
from itertools import chain

import numpy as np
import pytest

from repro.apps import APP_NAMES, make_app
from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.hardware import VirtualPlatform
from repro.runner.jobs import strip_casts
from repro.session import Session
from tests.oracles import kernel_values

#: (binding label, uniform format, vectorize) per build.
BINDINGS = (
    ("binary32-scalar", BINARY32, False),
    ("binary32", BINARY32, True),
    ("binary16alt", BINARY16ALT, True),
    ("binary16", BINARY16, True),
    ("binary8", BINARY8, True),
)

PARTITIONED_APPS = ("conv", "jacobi", "dwt", "knn")
PARTITION_CORES = (2, 4, 8)

BUILD_DIGESTS = {
    "conv": (
        "97adc6b0c776a9cfe2a1c1cce9b16e72"
        "31ac2d2eb1fcb54ab1641bb4c1f909c8"
    ),
    "dwt": (
        "6d81dac3c74135020fbcbc715da66b93"
        "e6cbe20153199c2deef330a2fae8bc2f"
    ),
    "jacobi": (
        "5ff66d15f0bb3450ad3fa1e334848829"
        "455bcf50de709bbb8fe8b831592b1163"
    ),
    "knn": (
        "350b9e2567bf29edaaa023c55d5ef89a"
        "ad7de40c13fde128d6cf52b2f63458cb"
    ),
    "pca": (
        "7cfb858a73e6c166627ab71ba861f2d6"
        "b76b67ca391f3829db5141d93c05ad69"
    ),
    "svm": (
        "206eacfcd4777c2d1a565e5c45d06d6d"
        "3e8b4de652cd0ef8f18c492d314fa35f"
    ),
}

PARTITION_DIGESTS = {
    ("conv", 2): (
        "a17c43b071c7ec46446e7d0449a87797"
        "32232f2ca8e8a3279c2365d5ada93fab"
    ),
    ("conv", 4): (
        "5c4c631b204e4f72be2ae10addabef05"
        "8e8ddc3648d3a1bedb325f882f3217e6"
    ),
    ("conv", 8): (
        "895ceea8c180ecaacaee07e9fbbcdec4"
        "243bafe995d4fe98a4eec0b8df963f59"
    ),
    ("dwt", 2): (
        "b34c7877718d9ee14e4a3abc4cfbca8c"
        "6ba6059f65d13b81cf95a7743d8128e2"
    ),
    ("dwt", 4): (
        "cb710e6acf407f3b7b6eef38eab8b63c"
        "bccaf3c0d3e6b137075032c79ef97130"
    ),
    ("dwt", 8): (
        "16abd8d2fd7fb55ed08b87c1dd008c37"
        "c80d07ea23555515c2679e52e405b060"
    ),
    ("jacobi", 2): (
        "bbda418cfeff790e2e70998b0cf139b1"
        "1fb83209420cc1ffb6dbeea331f42f43"
    ),
    ("jacobi", 4): (
        "a1d19a1727558b8228caa34eca135bce"
        "751b4834b67ecef093db032e43426451"
    ),
    ("jacobi", 8): (
        "cb3639a73069015d1f0cde51a720e3db"
        "3912e668fe6b79b072b6f12696f7ce20"
    ),
    ("knn", 2): (
        "2c352d93a97a7d1a32f8a92fa3a32536"
        "ba6a3d5de1fad0ddca08be909eaddf52"
    ),
    ("knn", 4): (
        "b79ca06b18d354ac90716421f48eb3fe"
        "1b83369e5c867cd7adeef95113bcea78"
    ),
    ("knn", 8): (
        "30b4b5a19b760be01d58b0401f413c05"
        "a2d0319d439917b2e37cc1e4b050577b"
    ),
}


#: Apps with swept loop nests, and those of them that partition.
PAPER_APPS = ("conv", "jacobi", "knn", "svm")
PAPER_PARTITIONED_APPS = ("conv", "jacobi", "knn")

PAPER_BUILD_DIGESTS = {
    "conv": (
        "9b1a9304ac8af677e3c303170aac5ffc"
        "0d0e0d1749abe6906601404179832c3d"
    ),
    "jacobi": (
        "296ca5990e37b64207a37fca483b5a73"
        "ec284eda876d34cc6fc6af4ec85f9e73"
    ),
    "knn": (
        "6aa2c4f4c9f4e694ec59749e9b9a8f74"
        "59821b21d761832d6ab148c5e788cb9e"
    ),
    "svm": (
        "52420b6d9f3bd746409c2bfc6bd360c8"
        "99c5fa97a77b4b7a144340e1638d47ee"
    ),
}

PAPER_PARTITION_DIGESTS = {
    ("conv", 2): (
        "4710e0d6c15a263261ec96f7087f48d6"
        "29ce21abe5a40e429156700668d624e8"
    ),
    ("conv", 4): (
        "01f745c12ae3d5b095bdf6b62efb1238"
        "08d86ee9c6f15c63a6d4cde5e2e2b5f6"
    ),
    ("conv", 8): (
        "530d4da1bd5046b97d55e888e93ab39c"
        "fb9d30036c5a2f325d9575f9c4f7d488"
    ),
    ("jacobi", 2): (
        "8faf73f1499b4703b7b28774dfaa3f4a"
        "420fb437e5ed62319ac757ad2a9c4dc7"
    ),
    ("jacobi", 4): (
        "d0f27b066f8c5e49273297c68485f4b9"
        "f083424d615e7753584f2699a2da7ad4"
    ),
    ("jacobi", 8): (
        "1ad26d69f01189707e3912a75fdc1c29"
        "b42726be3311048b1d847c83306b20d0"
    ),
    ("knn", 2): (
        "ea65c4dcaef7b16d4a1148afda99cf5a"
        "17409e3a0e989034ee59b23c7b77d40c"
    ),
    ("knn", 4): (
        "1bc55c76a0e47604d8c214da7bdf7f67"
        "a6df19c8621567a0a0a6a790ec97d427"
    ),
    ("knn", 8): (
        "e4009af43167cd7c1052ea09b5c5d672"
        "2e9927df0777bcb62f9950921b6dac27"
    ),
}


def _fmt_key(fmt):
    return None if fmt is None else (fmt.name, fmt.exp_bits, fmt.man_bits)


def _feed(digest, program) -> None:
    """Every instruction, every output array and the castless report."""
    digest.update(f"program {program.name} {len(program)}\n".encode())
    for ins in program.instrs:
        row = (
            int(ins.kind), ins.dst, tuple(ins.srcs), ins.op,
            _fmt_key(ins.fmt), _fmt_key(ins.src_fmt), ins.lanes,
            ins.width, bool(ins.taken),
        )
        digest.update(repr(row).encode())
    for name in sorted(program.arrays):
        digest.update(name.encode())
        digest.update(program.output(name).tobytes())
    report = VirtualPlatform().run(strip_casts(program))
    digest.update(json.dumps(report.to_payload(), sort_keys=True).encode())


def _feed_emitted(digest, program) -> None:
    """Every emitted field, read off the expanded stream, and every
    array."""
    stream = program.stream.expanded()
    digest.update(
        f"program {program.name} {len(program)} {stream.n_regs}\n".encode()
    )
    digest.update(repr(stream.ops).encode())
    digest.update(repr([_fmt_key(f) for f in stream.formats]).encode())
    digest.update(stream.rows.tobytes())
    srcs = stream.srcs
    digest.update(
        np.fromiter(map(len, srcs), np.int64, len(srcs)).tobytes()
    )
    digest.update(
        np.fromiter(chain.from_iterable(srcs), np.int64).tobytes()
    )
    for name in sorted(program.arrays):
        digest.update(name.encode())
        digest.update(program.output(name).tobytes())


def _uniform(app, fmt):
    return {spec.name: fmt for spec in app.variables()}


@pytest.mark.parametrize("name", APP_NAMES)
def test_build_streams_match_golden(name):
    app = make_app(name, "small")
    digest = hashlib.sha256()
    for label, fmt, vectorize in BINDINGS:
        digest.update(label.encode())
        with Session(backend="fast"), kernel_values():
            program = app.build_program(_uniform(app, fmt), 0, vectorize)
        _feed(digest, program)
    assert digest.hexdigest() == BUILD_DIGESTS[name]


@pytest.mark.parametrize("cores", PARTITION_CORES)
@pytest.mark.parametrize("name", PARTITIONED_APPS)
def test_partition_streams_match_golden(name, cores):
    app = make_app(name, "small")
    digest = hashlib.sha256()
    with Session(backend="fast"), kernel_values():
        programs = app.partition(cores, _uniform(app, BINARY16ALT), 0, True)
    for program in programs:
        _feed(digest, program)
    assert digest.hexdigest() == PARTITION_DIGESTS[(name, cores)]


@pytest.mark.parametrize("name", PAPER_APPS)
def test_paper_build_streams_match_golden(name):
    app = make_app(name, "paper")
    digest = hashlib.sha256()
    for label, fmt, vectorize in BINDINGS:
        digest.update(label.encode())
        with Session(backend="fast"), kernel_values():
            program = app.build_program(_uniform(app, fmt), 0, vectorize)
        _feed_emitted(digest, program)
    assert digest.hexdigest() == PAPER_BUILD_DIGESTS[name]


@pytest.mark.parametrize("cores", PARTITION_CORES)
@pytest.mark.parametrize("name", PAPER_PARTITIONED_APPS)
def test_paper_partition_streams_match_golden(name, cores):
    app = make_app(name, "paper")
    digest = hashlib.sha256()
    with Session(backend="fast"), kernel_values():
        programs = app.partition(cores, _uniform(app, BINARY16ALT), 0, True)
    for program in programs:
        _feed_emitted(digest, program)
    assert digest.hexdigest() == PAPER_PARTITION_DIGESTS[(name, cores)]
