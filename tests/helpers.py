"""Shared test helpers."""

from qprim.qform import BinaryForm


def raw_form(a: int, b: int, c: int) -> BinaryForm:
    """BinaryForm bypassing constructor validation.  Negative tests only."""
    f = object.__new__(BinaryForm)
    object.__setattr__(f, "a", a)
    object.__setattr__(f, "b", b)
    object.__setattr__(f, "c", c)
    return f
