"""Stage lines spelt out around ``corpus.json_floats`` are the stdlib
encoder's lines, byte for byte.

orjson writes the numbers and ``repr`` re-spells the tokens whose notation
differs (an exponent, below 1e-4, 1e16 and above). These tests compare the
text with ``encode_record`` of the same value: over arbitrary finite
arrays, the doubles at the notation boundaries, random bit patterns, the
non-finite values that orjson cannot write, and each stage's line writer
over ids that need escaping or look like numbers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from keyclust.cluster import ClusterConfig, run
from keyclust.corpus import encode_record, json_floats
from keyclust.pca import PcaModel, fit_pca, point_records
from keyclust.vectorize import TfIdfVector
from keyclust.weighting import export_records

EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-4,
    float(np.nextafter(1e-4, 0.0)),
    -1e-4,
    1e-5,
    1.234e-5,
    1e16,
    float(np.nextafter(1e16, 0.0)),
    -1e16,
    1.2345678901234568e17,
    1e21,
    1e22,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1 / 3,
    1.0,
    12345.678,
]

IDS = [
    'say "hi"',
    "back\\slash",
    "controls \x00\x01\x1f\t\n\r\x7f",
    "naïve café 日本語 \U0001f600",
    "lone \ud800 surrogate",
    "  ",
    "x,0.00001e5]",
    '[1e16,"',
    "",
]


def encoded(a: np.ndarray) -> str:
    return encode_record(a.tolist())


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_finite_arrays_are_encoded(a):
    assert json_floats(a) == encoded(a)


@pytest.mark.parametrize("x", EDGES)
def test_notation_boundaries(x):
    a = np.array([x, -x, x / 3, x * 3])
    assert json_floats(a) == encoded(a)
    assert json_floats([x]) == encode_record([x])


def test_every_edge_in_one_array():
    a = np.array(EDGES)
    assert json_floats(a) == encoded(a)
    assert json_floats(a.reshape(2, -1)) == encoded(a.reshape(2, -1))


def test_random_bit_patterns():
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 2**64, size=(400, 25), dtype=np.uint64, endpoint=False)
    a = bits.view(np.float64)
    a = a[np.isfinite(a).all(axis=1)]
    assert len(a) > 350
    for row in a:
        assert json_floats(row) == encoded(row)
    assert json_floats(a) == encoded(a)
    scaled = rng.normal(size=(40, 30)) * 10.0 ** rng.uniform(-30, 30, size=(40, 30))
    assert json_floats(scaled) == encoded(scaled)
    whole = np.round(rng.normal(size=(10, 30)) * 10.0 ** rng.integers(0, 22, size=(10, 1)))
    assert json_floats(whole.reshape(5, 2, 30)) == encoded(whole.reshape(5, 2, 30))


@pytest.mark.parametrize("bad, word", [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
def test_non_finite_arrays_are_the_encoders(bad, word):
    # orjson would write null
    a = np.array([[1e-5, bad], [0.5, 2.0]])
    assert json_floats(a) == encoded(a) == f"[[1e-05,{word}],[0.5,2.0]]"
    assert json_floats([[1, bad]]) == encode_record([[1, bad]])


def test_ints_and_mixed_lists():
    labels = np.array([[0, -1, 7], [123456789, 2, -3]])
    assert json_floats(labels) == encoded(labels)
    assert json_floats(labels.astype(np.int32)) == encoded(labels)
    pairs = [(0, 1e-5), (3, 0.5), (9999, 1e16), (12, 1.0)]
    assert json_floats(pairs) == encode_record(pairs) == "[[0,1e-05],[3,0.5],[9999,1e+16],[12,1.0]]"
    assert json_floats(np.zeros((0,))) == "[]"
    assert json_floats(np.zeros((2, 0))) == "[[],[]]"


def test_float32_written_as_float64():
    a = np.array([0.1, 1e-5], dtype=np.float32)
    assert json_floats(a) == encoded(a.astype(np.float64))


# ---------------------------------------------------------------------------
# the line writers


def test_point_lines():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(len(IDS), 4)) * 10.0 ** rng.uniform(-8, 18, size=(len(IDS), 4))
    lines = list(point_records(IDS, coords))
    assert lines == [
        encode_record({"chunk_id": cid, "coords": row.tolist()}) for cid, row in zip(IDS, coords)
    ]
    # a column slice is not contiguous, and its rows are written all the same
    assert list(point_records(IDS, coords[:, ::2])) == [
        encode_record({"chunk_id": cid, "coords": row.tolist()}) for cid, row in zip(IDS, coords[:, ::2])
    ]


@pytest.mark.parametrize("degenerate", [False, True])
def test_pca_line(degenerate):
    rng = np.random.default_rng(2)
    model = fit_pca(rng.normal(size=(30, 6)) * [1e-6, 1e-3, 1.0, 1e3, 1e17, 0.0], 3)
    model.degenerate = degenerate
    assert model.to_line() == encode_record(model.to_record())
    back = PcaModel.from_record(model.to_record())
    assert back.to_line() == model.to_line()


def test_vector_lines():
    weights = [0.5, 1e-5, 1e-300, 0.123456789012345678]
    vectors = [
        TfIdfVector(cid, {i * 7: w for i, w in enumerate(weights[:k])}, 1.0 - k * 1e-17)
        for k, cid in enumerate(IDS)
    ]
    vectors.append(TfIdfVector("unsorted", {9: 0.25, 2: 1e-7, 5: 1e16}, 0.9999999999999999))
    for vec in vectors:
        assert vec.to_line() == encode_record(vec.to_record())
    # a column index is written as an int, never through float()
    assert '"entries":[[2,1e-07],[5,1e+16],[9,0.25]]' in vectors[-1].to_line()


def fitted(k: int, mode: str):
    rng = np.random.default_rng(3)
    X = np.concatenate([rng.normal(c, 0.4, size=(len(IDS), 2)) for c in (0.0, 4.0)])
    X[0] = [1e-7, 2e17]
    ids = [f"{cid}#{half}" for half in range(2) for cid in IDS]
    w = rng.uniform(0.01, 1.0, size=len(ids))
    config = ClusterConfig(k=k, mode=mode, seed=1, threshold=0.5, damping_weight=0.05, max_iter=8)
    return run(ids, X, w, config)


@pytest.mark.parametrize("k, mode", [(1, "modified"), (3, "modified"), (3, "standard")])
def test_model_lines(k, mode):
    model = fitted(k, mode)
    if k == 1:
        assert np.isinf(model.d2).all()
        assert '"d2":[null,' in model.to_line()
    else:
        assert np.isfinite(model.d2).all()
    assert model.to_line() == encode_record(model.to_record())


def test_model_line_of_some_infinite_distances():
    model = fitted(3, "modified")
    model.d2[[1, 4]] = math.inf
    model.d2[2] = -math.inf
    assert model.to_line() == encode_record(model.to_record())


def test_weight_lines():
    rng = np.random.default_rng(4)
    weights = {cid: float(w) for cid, w in zip(IDS, rng.uniform(0.01, 1.0, size=len(IDS)))}
    weights.update({"tiny": 1.5e-5, "one": 1.0, "floor": 0.01})
    assert export_records(weights) == [
        encode_record({"chunk_id": cid, "weight": w}) for cid, w in sorted(weights.items())
    ]
    assert export_records({}) == []
