"""``corpus.encode_record`` writes the stdlib encoder's stage lines, byte for byte.

The reference is ``json.dumps`` of the record with every array ``tolist()``ed,
with sorted keys, ``ensure_ascii=False`` and the compact separators. The
walker writes arrays and number lists with ``corpus.json_floats``: orjson
writes the numbers, and the tokens whose notation differs from ``repr``'s
(an exponent, below 1e-4, 1e16 and above) are spelt again. These tests
compare both with the reference: over arbitrary finite arrays, the doubles
at the notation boundaries, random bit patterns, the non-finite values that
orjson cannot write, long ints, arbitrary nested records, and each stage's
records over ids that need escaping or look like numbers.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from keyclust import corpus
from keyclust.cluster import ClusterConfig, run
from keyclust.corpus import encode_record, json_floats
from keyclust.pca import PcaModel, fit_pca, point_records
from keyclust.vectorize import read_rows, vector_records
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
    "\u2028\u2029",
    "x,0.00001e5]",
    '[1e16,"',
    "",
]


def reference(obj) -> str:
    """The stdlib encoder's text of ``obj``, each array in it ``tolist()``ed."""
    return json.dumps(
        obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"), default=lambda a: a.tolist()
    )


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_finite_arrays_are_encoded(a):
    assert json_floats(a) == reference(a)


@pytest.mark.parametrize("x", EDGES)
def test_notation_boundaries(x):
    a = np.array([x, -x, x / 3, x * 3])
    assert json_floats(a) == reference(a)
    assert json_floats([x]) == reference([x])


def test_every_edge_in_one_array():
    a = np.array(EDGES)
    assert json_floats(a) == reference(a)
    assert json_floats(a.reshape(2, -1)) == reference(a.reshape(2, -1))


def test_random_bit_patterns():
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 2**64, size=(400, 25), dtype=np.uint64, endpoint=False)
    a = bits.view(np.float64)
    a = a[np.isfinite(a).all(axis=1)]
    assert len(a) > 350
    for row in a:
        assert json_floats(row) == reference(row)
    assert json_floats(a) == reference(a)
    scaled = rng.normal(size=(40, 30)) * 10.0 ** rng.uniform(-30, 30, size=(40, 30))
    assert json_floats(scaled) == reference(scaled)
    whole = np.round(rng.normal(size=(10, 30)) * 10.0 ** rng.integers(0, 22, size=(10, 1)))
    assert json_floats(whole.reshape(5, 2, 30)) == reference(whole.reshape(5, 2, 30))


@pytest.mark.parametrize("bad, word", [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
def test_non_finite_arrays_are_the_encoders(bad, word):
    # orjson would write null
    a = np.array([[1e-5, bad], [0.5, 2.0]])
    assert json_floats(a) == reference(a) == f"[[1e-05,{word}],[0.5,2.0]]"
    assert json_floats([[1, bad]]) == reference([[1, bad]])


def test_ints_and_mixed_lists():
    labels = np.array([[0, -1, 7], [123456789, 2, -3]])
    assert json_floats(labels) == reference(labels)
    assert json_floats(labels.astype(np.int32)) == reference(labels)
    pairs = [(0, 1e-5), (3, 0.5), (9999, 1e16), (12, 1.0)]
    assert json_floats(pairs) == reference(pairs) == "[[0,1e-05],[3,0.5],[9999,1e+16],[12,1.0]]"
    assert json_floats(np.zeros((0,))) == "[]"
    assert json_floats(np.zeros((2, 0))) == "[[],[]]"
    # what orjson cannot write, or writes other than as numbers, is the encoder's
    for value in ([None, 0.5], [True, 1e-5], [1, "a"], [2**64, 1e-5], np.array(0.25), np.array([True])):
        assert json_floats(value) == reference(value)


def test_long_ints_next_to_respelt_floats():
    # 17 digits and more, up to 2**64 - 1: written as ints even where a
    # float beside them is one that orjson spells otherwise
    ints = [10**16, 12345678901234567, 10**17 + 1, 2**62, 2**63 - 1, 2**63, 10**19, 2**64 - 1]
    for i in ints:
        for x in (1e-5, 5e-8, 1e16, 1.5e300):
            assert json_floats([(i, x)]) == reference([(i, x)]) == f"[[{i},{x!r}]]"
            assert json_floats([[-i if i < 2**63 else i, x]]) == reference([[-i if i < 2**63 else i, x]])
    assert json_floats([*ints, 5e-8]) == reference([*ints, 5e-8])
    assert json_floats(np.array(ints, dtype=np.uint64)) == reference(ints)


def test_0_0000_within_larger_numbers():
    # only a number below 1e-4 is spelt again, not one that holds its digits
    a = np.array([10.00001, -100.000012, 1000.00005, 0.00001, -0.000012345, 5e-5, 9.9999e-5, 1e-4])
    assert json_floats(a) == reference(a)
    assert json_floats(a.tolist()) == reference(a)
    assert json_floats(a.reshape(2, -1)) == reference(a.reshape(2, -1))


def test_float32_written_as_float64():
    a = np.array([0.1, 1e-5], dtype=np.float32)
    assert json_floats(a) == reference(a.astype(np.float64))


# ---------------------------------------------------------------------------
# encode_record over nested records

NUMBERS = st.none() | st.integers() | st.floats()
NUMBER_LISTS = (
    st.lists(NUMBERS, min_size=1, max_size=5)
    | st.lists(st.tuples(st.integers(0, 2**64 - 1), st.floats()), min_size=1, max_size=4)
    | st.lists(st.lists(NUMBERS, min_size=1, max_size=3), min_size=1, max_size=3)
)
ARRAYS = st.sampled_from([np.float64, np.float32, np.int64, np.uint64, np.bool_]).flatmap(
    lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
)
STRINGS = st.sampled_from(IDS) | st.text(max_size=5)
LEAVES = (
    st.none() | st.booleans() | NUMBERS | STRINGS | NUMBER_LISTS | ARRAYS | st.lists(STRINGS, max_size=4)
)
RECORDS = st.recursive(
    st.dictionaries(STRINGS, LEAVES, max_size=4),
    lambda records: st.dictionaries(
        STRINGS, LEAVES | records | st.lists(records, min_size=1, max_size=3), max_size=4
    ),
    max_leaves=12,
)


def is_number_list(obj) -> bool:
    """A non-empty list or tuple of numbers, None and such lists."""
    return isinstance(obj, (list, tuple)) and bool(obj) and all(
        is_number_list(x) or isinstance(x, (int, float, type(None))) and not isinstance(x, bool) for x in obj
    )


def floats_written(obj) -> list:
    """The arrays and number lists in ``obj``: the values ``json_floats`` must write."""
    if isinstance(obj, np.ndarray) or is_number_list(obj):
        return [obj]
    if isinstance(obj, dict):
        return [a for value in obj.values() for a in floats_written(value)]
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return [a for item in obj for a in floats_written(item)]
    return []


@settings(max_examples=200, deadline=None)
@given(RECORDS)
def test_records_are_the_encoders(record):
    # surrogates included: the lines are compared as text, never written
    with mock.patch.object(corpus, "json_floats", wraps=json_floats) as spy:
        line = encode_record(record)
    assert line == reference(record)
    # and every array and number list reaches json_floats, none the stdlib encoder whole
    assert sorted(id(call.args[0]) for call in spy.call_args_list) == sorted(map(id, floats_written(record)))


# ---------------------------------------------------------------------------
# each stage's records


def test_point_lines():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(len(IDS), 4)) * 10.0 ** rng.uniform(-8, 18, size=(len(IDS), 4))
    # a column slice is not contiguous, and its rows are written all the same
    for points in (coords, coords[:, ::2]):
        assert [encode_record(rec) for rec in point_records(IDS, points)] == [
            reference({"chunk_id": cid, "coords": row}) for cid, row in zip(IDS, points)
        ]


@pytest.mark.parametrize("degenerate", [False, True])
def test_pca_line(degenerate):
    rng = np.random.default_rng(2)
    model = fit_pca(rng.normal(size=(30, 6)) * [1e-6, 1e-3, 1.0, 1e3, 1e17, 0.0], 3)
    model.degenerate = degenerate
    line = encode_record(model.to_record())
    assert line == reference(model.to_record())
    assert encode_record(PcaModel.from_record(json.loads(line)).to_record()) == line


def test_vector_lines():
    # the records that vector_records writes from CSR slices, one row per id,
    # the last with weights past both of json_floats's re-spelt ranges
    weights = [0.5, 1e-5, 1e-300, 0.123456789012345678]
    rows = [{i * 7: w for i, w in enumerate(weights[:k])} for k in range(len(IDS))]
    rows.append({2: 1e-7, 5: 1e16, 9: 0.25})
    ids = [*IDS, "last"]
    records = [{"chunk_id": cid, "entries": sorted(row.items()), "norm": 1.0} for cid, row in zip(ids, rows)]
    written = list(vector_records(*read_rows(records)))
    for rec, want in zip(written, rows):
        total = 0.0
        for _, w in sorted(want.items()):
            total += w * w
        assert rec["entries"] == sorted(want.items()) and rec["norm"] == math.sqrt(total)
        assert encode_record(rec) == reference(rec)
    # a column index is written as an int, never through float()
    assert '"entries":[[2,1e-07],[5,1e+16],[9,0.25]]' in encode_record(written[-1])


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
    line = encode_record(model.to_record())
    if k == 1:
        assert np.isinf(model.d2).all()
        assert '"d2":[null,' in line
    else:
        assert np.isfinite(model.d2).all()
    assert line == reference(model.to_record())


def test_model_line_of_some_infinite_distances():
    model = fitted(3, "modified")
    model.d2[[1, 4]] = math.inf
    model.d2[2] = -math.inf
    line = encode_record(model.to_record())
    assert line == reference(model.to_record())
    assert '"d2":[' in line and line.count("null") == 3


def test_weight_lines():
    rng = np.random.default_rng(4)
    weights = {cid: float(w) for cid, w in zip(IDS, rng.uniform(0.01, 1.0, size=len(IDS)))}
    weights.update({"tiny": 1.5e-5, "one": 1.0, "floor": 0.01})
    assert [encode_record(rec) for rec in export_records(weights)] == [
        reference({"chunk_id": cid, "weight": w}) for cid, w in sorted(weights.items())
    ]
    assert list(export_records({})) == []
