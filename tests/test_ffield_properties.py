"""Field axioms, inverses and the canonical index as hypothesis properties.

Elements are drawn by canonical index, so every example is reproducible
from the integers hypothesis reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsfactor.ffield import FieldElement, make_field

FIELDS = {
    "F3": make_field(3),
    "F13": make_field(13),
    "F101": make_field(101),
    "F27": make_field(3, 3),
    "F25": make_field(5, 2),
    "F7.ext": make_field(7).ext,
    "F13.ext": make_field(13).ext,
    "F9.ext": make_field(3, 2).ext,
}

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
INDEX = st.integers(min_value=0, max_value=10**6)
over_fields = pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())


def at(field, i):
    return FieldElement(field, field.rep_at(i % field.q))


@over_fields
@PROPERTY
@given(i=INDEX, j=INDEX, k=INDEX)
def test_field_axioms(field, i, j, k):
    a, b, c = at(field, i), at(field, j), at(field, k)
    zero, one = field.zero, field.one
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    assert a * 2 == a + a and 1 + a == a + one


@over_fields
@PROPERTY
@given(i=INDEX)
def test_inverses(field, i):
    a = at(field, i)
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a * a.inverse() == field.one
    assert a / a == field.one and a ** -1 == a.inverse()
    assert a ** (field.q - 1) == field.one


@over_fields
@PROPERTY
@given(i=INDEX, j=INDEX)
def test_index_round_trips(field, i, j):
    i, j = i % field.q, j % field.q
    rep = field.rep_at(i)
    assert field.index_of(rep) == i
    assert field.elem(FieldElement(field, rep)).rep == rep
    assert (rep < field.rep_at(j)) == (i < j)
