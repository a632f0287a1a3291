"""The library's result records are immutable tuples with named fields."""

import pytest

from qprim.classgroup import ClassGroup, enumerate_classes
from qprim.oracle import verify_classification_grid
from qprim.pprim import build_isometry, classify_all, solve_two_square
from qprim.qform import BinaryForm
from qprim.repcount import rep_counts
from qprim.ternary import TernaryForm, build_fm, spectrum_identity_report

RECORDS = {
    "IntMap2": lambda: build_isometry(BinaryForm(1, 1, 1), solve_two_square(-3, 7)[0]),
    "RepRecord": lambda: rep_counts(BinaryForm(1, 0, 14), 9, 3),
    "Verdict": lambda: classify_all(-56, 3)[0],
    "GridCell": lambda: verify_classification_grid(-8, -3, 3, 50).cells[0],
    "GridReport": lambda: verify_classification_grid(-8, -3, 3, 50),
    "SpectrumIdentityReport": lambda: spectrum_identity_report(120),
    "TernaryForm": lambda: build_fm(1),
    "ClassGroup": lambda: enumerate_classes(-56),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_reject_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and record._fields
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_class_group_carries_orders_and_squares():
    assert {"orders", "squares"} <= set(ClassGroup._fields)


def test_form_replace_runs_the_constructor_checks():
    assert BinaryForm(1, 0, 14)._replace(b=2, c=15) == BinaryForm(1, 2, 15)
    assert type(build_fm(1)._replace(xx=4)) is TernaryForm
    assert build_fm(1)._replace(xx=4) == build_fm(2)
    with pytest.raises(ValueError, match="negative definite"):
        BinaryForm(1, 0, 14)._replace(a=-1, c=-14)
    with pytest.raises(ValueError, match="not positive definite"):
        build_fm(1)._replace(xx=-1)
