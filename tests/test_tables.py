"""Fuzzing of the four table-file readers: every failure is a
ValidationError."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canonfactor import (ValidationError, read_halfline, read_hamiltonian,
                         read_matrix, read_weight)

READERS = (read_hamiltonian, read_weight, read_halfline, read_matrix)
MAGICS = ("#canon-hamiltonian v1", "#weight v1", "#halfline v1",
          "#matrix v1")

_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "inf", "-inf", "x", "1e999", "0x1p3", "--1"]),
    st.text(max_size=4))
_ROW = st.lists(_FIELD, max_size=6).map(" ".join)
_HEADER = st.one_of(
    st.sampled_from(MAGICS),
    st.tuples(st.sampled_from(MAGICS),
              st.lists(st.sampled_from(["2", "3", "-1", "x", "9" * 5000]),
                       max_size=3)).map(lambda h: " ".join([h[0], *h[1]])),
    st.text(max_size=12))
_TEXT = st.tuples(_HEADER, st.lists(_ROW, max_size=6)).map(
    lambda parts: "\n".join([parts[0], *parts[1]]).encode("utf-8"))
_BAD_UTF8 = st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80"])
_CONTENT = st.one_of(
    _TEXT,
    st.tuples(_TEXT, _BAD_UTF8, _TEXT).map(b"".join),
    st.binary(max_size=64))


@given(_CONTENT)
@example(b"")
@example(b"\n \n")
@example(b"#matrix v1 2 2\n\xff\xfe 1\n")
@example(b"#canon-hamiltonian v1\n0 1 1 0 nan\n")
@example(b"#weight v1\n0 1\n2 3 4\n")
@example(b"#halfline v1\n0 1 inf\n")
@example(b"#matrix v1 2 2\n1 2\n3\n")
@example(("#matrix v1 " + "9" * 5000 + " 1\n1\n").encode())
def test_readers_fail_only_with_validation_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "t.txt"
    path.write_bytes(content)
    for read in READERS:
        try:
            read(path)
        except ValidationError as exc:
            assert str(path) in str(exc)


@pytest.mark.parametrize("read", READERS)
def test_non_utf8_file_is_a_validation_error(tmp_path, read):
    path = tmp_path / "t.txt"
    path.write_bytes(b"#matrix v1 1 1\n" + bytes(range(128, 256)))
    with pytest.raises(ValidationError, match="UTF-8"):
        read(path)
