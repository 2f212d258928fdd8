import random

import pytest

from mbrr.encode import encode, encode_rows, encoding_matrix, row_polynomial
from mbrr.layout import (
    NodeId,
    all_nodes,
    evaluation_point,
    fill_message_matrix,
    fill_plan,
    index_sets,
    make_params,
)
from mbrr.linalg import mat_vec, matmul, poly_eval

from support import PARAM_SETS, SLAB_CASES, params, random_stripe


def test_encoding_matrix_entries_are_point_powers():
    for name in ("reference", "pairs"):
        p = params(name)
        enc = encoding_matrix(p)
        j = index_sets(p)[2]
        assert len(enc) == len(j)
        for row, deg in zip(enc, j):
            assert len(row) == p.n
            for node, v in zip(all_nodes(p), row):
                assert v == p.field.pow(evaluation_point(p, node), deg)


def test_row_polynomial_spreads_columns_by_degree():
    """Dense coefficients: row entries land at their column's degree, with
    zeros at the skipped degrees."""
    p = params("reference")
    data = list(range(16)) + [7, 7, 7, 7]
    M = fill_message_matrix(p, data)
    f0 = row_polynomial(M, 0)
    # J = (0,1,2,3,4,5,6,8): degree 7 is skipped
    assert f0 == [
        data[0],
        data[3],
        data[6],
        data[9],
        data[12],
        data[7],
        data[17],
        0,
        data[8],
    ]
    assert row_polynomial(M, 2)[8] == 0  # structural zero lands on top degree


def test_stored_symbols_are_row_evaluations():
    rng = random.Random(14)
    for name in PARAM_SETS:
        p = params(name)
        M = fill_message_matrix(p, random_stripe(p, rng))
        C = encode(M)
        assert len(C.rows) == p.alpha
        assert all(len(row) == p.n for row in C.rows)
        assert C.rows == matmul(p.field, M.rows, encoding_matrix(p))
        for i in range(p.alpha):
            coeffs = row_polynomial(M, i)
            for node in all_nodes(p):
                want = poly_eval(p.field, coeffs, evaluation_point(p, node))
                assert C.column(node)[i] == want


def test_encoding_is_linear():
    """Columns of a slot-wise combination are the combination of columns."""
    p = params("quads")  # prime field: addition is not xor
    f = p.field
    rng = random.Random(16)
    a = random_stripe(p, rng)
    b = random_stripe(p, rng)
    c = rng.randrange(1, f.q)
    combo = [f.add(x, f.mul(c, y)) for x, y in zip(a, b)]
    Ca = encode(fill_message_matrix(p, a))
    Cb = encode(fill_message_matrix(p, b))
    Cc = encode(fill_message_matrix(p, combo))
    for node in all_nodes(p):
        ca, cb, cc = Ca.column(node), Cb.column(node), Cc.column(node)
        assert cc == [f.add(x, f.mul(c, y)) for x, y in zip(ca, cb)]


def test_encode_rejects_misshapen_rows():
    p = params("reference")
    M = fill_message_matrix(p, random_stripe(p, random.Random(18)))
    M.rows[1] = M.rows[1][:-1]
    with pytest.raises(ValueError, match="entries"):
        encode(M)


def test_column_lookup_validates_node():
    p = params("reference")
    rng = random.Random(17)
    C = encode(fill_message_matrix(p, random_stripe(p, rng)))
    with pytest.raises(ValueError):
        C.column(NodeId(9, 0))


@pytest.mark.parametrize("geo, field", SLAB_CASES)
def test_encode_rows_are_the_code(geo, field):
    """Every cell's generator row, applied to the data vector, gives the
    symbol ``encode`` stores in that cell."""
    p = make_params(*geo, field=field)
    rng = random.Random(19)
    cells = [(i, node) for node in all_nodes(p) for i in range(p.alpha)]
    rows = encode_rows(p, cells)
    assert len(rows) == p.n * p.alpha and all(len(row) == p.B for row in rows)
    for _ in range(3):
        data = random_stripe(p, rng)
        C = encode(fill_message_matrix(p, data))
        assert mat_vec(p.field, rows, data) == [C.column(node)[i] for i, node in cells]


def test_no_data_slot_repeats_within_a_message_row():
    """Each generator-row entry is one point power, because the mirrored
    cells of M1 sit in different message rows."""
    geos = [*PARAM_SETS.values(), (12, 8, 2, 4), (25, 13, 5, 4), (50, 44, 5, 8), (200, 194, 5, 39)]
    for geo in geos:
        for slot_row in fill_plan(make_params(*geo))[0]:
            filled = [s for s in slot_row if s is not None]
            assert len(filled) == len(set(filled))
