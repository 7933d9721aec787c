"""The output writers against the reference writers, byte for byte.

``harness._json_text`` renders a list of plain ints, of plain floats or of
equal-length int rows in one string operation, and ``harness._table_text``
writes each CSV row through one ``%`` template, built once per tuple of
cell types.  ``oracles.json_text_oracle`` and
``oracles.table_text_oracle`` render every value on its own.  Both must
give the same text for any payload: nested and empty containers, bools
among ints, numpy scalars, signed zeros, infinities, nan, subnormals,
strings that need escaping, and tables whose rows change kind or length.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdkit.harness import _json_text, _table_text
from oracles import json_text_oracle, table_text_oracle

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1]),
)
INTS = st.one_of(st.integers(), st.integers(-(2**63), 2**63 - 1))
TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "é", "☃", "\ud800", "\n\t", "a,b", "%d", "%s"]),
)

# Scalar kinds a table column can hold, each by name.
KINDS = {
    "int": INTS,
    "float": FLOATS,
    "bool": st.booleans(),
    "none": st.none(),
    "str": TEXT,
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "np.float64": FLOATS.map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "np.bool_": st.booleans().map(np.bool_),
}
SCALARS = st.one_of(*KINDS.values())

# Lists that the one-step paths take, and lists that only nearly fit them.
FAST_LISTS = st.one_of(
    st.lists(INTS),
    st.lists(FLOATS),
    st.lists(st.one_of(INTS, st.booleans())),
    st.lists(st.one_of(FLOATS, INTS)),
    st.integers(0, 4).flatmap(
        lambda k: st.lists(st.lists(INTS, min_size=k, max_size=k), max_size=8)
    ),
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.tuples(*[INTS] * k), max_size=8)
    ),
    st.lists(st.lists(st.one_of(INTS, st.booleans()), max_size=3), max_size=8),
    st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=6),
)

PAYLOADS = st.recursive(
    st.one_of(SCALARS, FAST_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(TEXT, INTS), children, max_size=5),
    ),
    max_leaves=30,
)


@st.composite
def tables(draw):
    """Rows of dicts with one set of keys.  Each column has a kind, a scalar
    or a list of one length; now and then a row's cell takes another."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=5, unique=True))
    kind = st.tuples(st.sampled_from(sorted(KINDS)), st.none() | st.integers(0, 3))
    columns = {k: draw(kind) for k in keys}
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {}
        for k in keys:
            name, length = columns[k] if draw(st.integers(0, 5)) else draw(kind)
            if length is None:
                row[k] = draw(KINDS[name])
            else:
                row[k] = draw(st.lists(KINDS[name], min_size=length, max_size=length))
        rows.append(row)
    return rows


@settings(max_examples=400, deadline=None)
@given(PAYLOADS, st.integers(0, 3))
def test_json_text_matches_reference(payload, indent):
    assert _json_text(payload, indent) == json_text_oracle(payload, indent)


@settings(max_examples=400, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_table_text_matches_reference(rows, fmt):
    assert _table_text(rows, fmt) == table_text_oracle(rows, fmt)


def test_mask_table_matches_reference():
    # The shape a scan writes: np.argwhere rows, large enough to matter.
    rng = np.random.default_rng(7)
    for shape in ((128, 128), (32, 32, 32)):
        cells = np.argwhere(rng.random(shape) < 0.4).tolist()
        payload = {"resolution": list(shape), "tol": 1e-8, "cells": cells}
        assert _json_text(payload) == json_text_oracle(payload)
