"""The timeline record type, the renderers' one-call formatting of rows
and columns, held against the per-field path it stands in for, and the one
CSV join and JSON rule."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk import TimelineRecord
from twinwalk.experiment import MAX_STEPS
from twinwalk.render import (
    TIMELINE_HEADER,
    csv_text,
    format_column,
    json_text,
    render_timeline_csv,
    timeline_row,
)
from testutil import format_number

FIELDS = (
    "step", "p0", "p1", "entropy0", "entropy1",
    "max_entropy", "ratio0", "ratio1", "support0", "support1",
)

#: values whose rendering is easy to get wrong: absent, signed zeros,
#: infinities, NaN, subnormals and the extremes of the exponent range
EDGE_NUMBERS = (
    None, 0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
)

numbers = st.one_of(st.sampled_from(EDGE_NUMBERS), st.floats())
counts = st.one_of(st.none(), st.integers(0, MAX_STEPS))
records = st.builds(
    TimelineRecord,
    st.integers(1, MAX_STEPS),
    *[numbers] * 7,
    counts,
    counts,
)


def test_timeline_record_is_an_immutable_tuple_in_field_order():
    record = TimelineRecord(3, 0.5, 0.5, 1.25, 1.0, 1.5, 0.8, 0.6, 4, 2)
    assert TimelineRecord._fields == FIELDS
    assert tuple(record) == (3, 0.5, 0.5, 1.25, 1.0, 1.5, 0.8, 0.6, 4, 2)
    assert record == TimelineRecord(*record) and hash(record) == hash(TimelineRecord(*record))
    with pytest.raises(AttributeError):
        record.p0 = 0.25
    assert not dataclasses.is_dataclass(record)


@given(timeline=st.lists(records, max_size=20))
@settings(deadline=None, max_examples=200)
def test_renderers_match_the_per_field_path(timeline):
    assert render_timeline_csv(timeline) == "\n".join(
        [TIMELINE_HEADER, *map(timeline_row, timeline)]
    ) + "\n"
    for record in timeline:
        assert timeline_row(record) == ",".join([str(record.step), *map(format_number, record[1:8])])
    for values in list(zip(*timeline))[1:8]:
        assert column_of(values) == list(map(format_number, values))


def column_of(values) -> list[str]:
    """``format_column`` of values with None for absent, held as NaN in
    place of None, as the measured arrays hold them."""
    present = [value is not None for value in values]
    return format_column([math.nan if value is None else value for value in values], present)


@given(values=st.lists(numbers, max_size=60))
@settings(deadline=None, max_examples=300)
def test_column_formatter_matches_format_number(values):
    # signed zeros, subnormals, +-1e300 and absent values among any floats
    assert column_of(values) == list(map(format_number, values))


def test_column_formatter_renders_each_edge_value():
    assert column_of(EDGE_NUMBERS) == list(map(format_number, EDGE_NUMBERS))
    assert column_of([None]) == [""] and column_of([]) == []
    assert column_of([-0.0, 5e-324, 1e300, -1e300]) == ["-0", "4.94065645841e-324", "1e+300", "-1e+300"]


def test_csv_join_and_json_rule():
    assert csv_text(("a", "b"), [("1", ""), ("", "2")]) == "a,b\n1,\n,2\n"
    assert csv_text(("a",), []) == "a\n"
    # sorted keys, indent 2, a numpy integer as an int, a trailing newline
    assert json_text({"b": np.int64(2), "a": [0.1, None]}) == (
        '{\n  "a": [\n    0.1,\n    null\n  ],\n  "b": 2\n}\n'
    )
    # a value that is no integer is not rounded to one
    with pytest.raises(TypeError):
        json_text({"a": np.float32(0.5)})
