"""The output writers against the reference writers, byte for byte.

``harness._json_text`` renders a list of equal-length int rows in one
string operation, and ``harness._table_text`` writes a front or trace
table, CSV or JSON, through one ``%`` template of one row, built once per
table.  ``oracles.json_text_oracle`` and ``oracles.table_text_oracle``
render every value on its own, the latter from the tables' rows as dicts
(``oracles.front_rows_oracle``, ``oracles.trace_rows_oracle``).  Both must
give the same text: ``_json_text`` for any payload (nested and empty
containers, bools among ints, numpy scalars, signed zeros, infinities,
nan, subnormals, strings that need escaping), ``_table_text`` for fronts
and traces of any size, empty ones included (in CSV a header line alone),
with such floats, ints of any size and every criticality case.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdkit import CriticalityCase, RunResult, Termination
from mgdkit.descent import TraceRecord
from mgdkit.harness import _columns, _json_text, _table_text, _trace_rows
from oracles import front_rows_oracle, json_text_oracle, table_text_oracle, trace_rows_oracle

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
    """A front or a trace table as the program writes it, (columns, rows),
    and for the reference its CSV header and its rows as dicts: k points
    of n variables and m objectives, k = 0 included."""
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 6))
    X = np.array(draw(st.lists(FLOATS, min_size=k * n, max_size=k * n))).reshape(k, n)
    F = np.array(draw(st.lists(FLOATS, min_size=k * m, max_size=k * m))).reshape(k, m)
    front, trace = _columns(n, m)
    names = [f"x{i}" for i in range(n)] + [f"f{i}" for i in range(m)]
    if draw(st.booleans()):
        return front, np.hstack([X, F]).tolist(), names, front_rows_oracle(X, F)
    records = [
        TraceRecord(
            k=draw(INTS | KINDS["np.int64"]),
            x=x,
            f=f,
            p_star=x,
            beta_star=draw(FLOATS | KINDS["np.float64"]),
            eta=draw(FLOATS | KINDS["np.float64"]),
            armijo_satisfied=draw(st.booleans() | KINDS["np.bool_"]),
            critical_case=draw(st.sampled_from(CriticalityCase)),
        )
        for x, f in zip(X, F)
    ]
    result = RunResult(trace=records, x_hat=np.zeros(n), f_hat=np.zeros(m),
                       stored_x=np.empty((0, n)), stored_f=np.empty((0, m)),
                       termination=Termination.MAX_ITERS, iterations=k)
    header = ["k", *names, "eta", "beta_star", "armijo_satisfied", "critical_case"]
    return trace, _trace_rows(result), header, trace_rows_oracle(result)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS, st.integers(0, 3))
def test_json_text_matches_reference(payload, indent):
    assert _json_text(payload, indent) == json_text_oracle(payload, indent)


@settings(max_examples=400, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_table_text_matches_reference(table, fmt):
    columns, rows, header, dict_rows = table
    assert _table_text(columns, rows, fmt) == table_text_oracle(header, dict_rows, fmt)


def test_mask_table_matches_reference():
    # The shape a scan writes: np.argwhere rows, large enough to matter.
    rng = np.random.default_rng(7)
    for shape in ((128, 128), (32, 32, 32)):
        cells = np.argwhere(rng.random(shape) < 0.4).tolist()
        payload = {"resolution": list(shape), "tol": 1e-8, "cells": cells}
        assert _json_text(payload) == json_text_oracle(payload)
