"""The archive reader and the JSON type walker of wasnloc.typedjson.

read_archive parses the zip records np.savez writes itself; these tests
hold it to what np.load reads from the same files, and to the refusals a
zip reader makes (a truncated file, a flipped byte, a compressed member).
"""

import dataclasses
import json
import math
import shutil
import struct
import typing
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from conftest import TINY_GRID_N, rewrite_npz

from wasnloc.dataset import FEATURES_NAME, _FeaturesHeader, read_feature_cache
from wasnloc.typedjson import InputError, build, read_archive, write_archive

ALL_MEMBERS = ("gcc", "slf", "meta")


@dataclasses.dataclass(frozen=True)
class Header:
    version: int
    label: str
    sizes: tuple[int, ...]


HEADER = Header(7, "ünïcode", (3, 0, 12))

# float32 members of 1-D and 2-D shapes, zero rows included, any bits (NaN
# and infinities too: the archive stores them as they are)
ARRAYS = st.dictionaries(
    st.sampled_from(["a", "b", "gcc", "slf", "meta"]),
    hnp.arrays(
        np.float32,
        st.one_of(st.tuples(st.integers(0, 40)), st.tuples(st.integers(0, 5), st.integers(1, 30))),
        elements=st.floats(width=32),
    ),
    max_size=4,
)


def _cache(tiny_dataset, tmp_path, k=0):
    """A copy of the features.bin of test example k, and its manifest entry."""
    root, manifest = tiny_dataset
    entry = manifest["splits"]["test"]["examples"][k]
    path = tmp_path / FEATURES_NAME
    shutil.copy(root / entry["dir"] / FEATURES_NAME, path)
    return path, entry


def _entry_offset(raw: bytes, member: str) -> int:
    """The offset of a member's central directory entry in an archive's bytes."""
    count, _, pos = struct.unpack("<H2L", raw[-12:-2])  # entry count, directory size and offset
    for _ in range(count):
        n_name, n_extra, n_comment = struct.unpack("<3H", raw[pos + 28 : pos + 34])
        if raw[pos + 46 : pos + 46 + n_name] == f"{member}.npy".encode():
            return pos
        pos += 46 + n_name + n_extra + n_comment
    raise AssertionError(f"no member {member}")


def _data_span(path, member: str) -> tuple[int, int]:
    """The byte range of a member's array data, after its npy header."""
    raw = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{member}.npy")
    n_name, n_extra = struct.unpack("<2H", raw[info.header_offset + 26 : info.header_offset + 30])
    start = info.header_offset + 30 + n_name + n_extra
    return start + 10 + int.from_bytes(raw[start + 8 : start + 10], "little"), start + info.file_size


class TestReadArchive:
    @settings(max_examples=60, deadline=None)
    @given(arrays=ARRAYS)
    def test_round_trip_equals_np_load(self, tmp_path_factory, arrays):
        path = tmp_path_factory.mktemp("archive") / "a.npz"
        write_archive(path, HEADER, **arrays)
        header, read = read_archive(path, Header, tuple(arrays))
        assert header == HEADER
        with np.load(path) as data:  # np.load opens the archive too
            assert data["header"].tobytes() == json.dumps(dataclasses.asdict(HEADER)).encode()
            for name, array in read.items():
                expected = data[name]
                assert array.dtype == expected.dtype == np.float32 and array.shape == expected.shape
                assert array.tobytes() == expected.tobytes()
                assert array.flags.writeable and array.flags.aligned and array.flags.c_contiguous

    def test_every_truncation_refused_naming_the_file(self, tiny_dataset, tmp_path):
        path, entry = _cache(tiny_dataset, tmp_path)
        raw = path.read_bytes()
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(InputError) as info:
                read_feature_cache(path, TINY_GRID_N, entry, ALL_MEMBERS)
            assert str(info.value).startswith(f"{path}: ")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_flipped_data_byte_fails_crc(self, tiny_dataset, tmp_path_factory, data):
        path, entry = _cache(tiny_dataset, tmp_path_factory.mktemp("flip"), data.draw(st.integers(0, 3)))
        member = data.draw(st.sampled_from(ALL_MEMBERS))
        start, end = _data_span(path, member)
        raw = bytearray(path.read_bytes())
        raw[data.draw(st.integers(start, end - 1))] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: unreadable member '{member}': Bad CRC-32"):
            read_feature_cache(path, TINY_GRID_N, entry, ALL_MEMBERS)
        others = tuple(m for m in ALL_MEMBERS if m != member)
        read_feature_cache(path, TINY_GRID_N, entry, others)  # a member not read is not checked

    def test_compressed_archive_refused(self, tiny_dataset, tmp_path):
        path, entry = _cache(tiny_dataset, tmp_path)
        with np.load(path) as data:
            members = dict(data)
        with open(path, "wb") as fh:  # a path would get an .npz suffix
            np.savez_compressed(fh, **members)
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: unreadable member 'header': compressed"):
            read_feature_cache(path, TINY_GRID_N, entry, ALL_MEMBERS)

    # central directory entry fields of the slf member set to other values:
    # (offset in the entry, struct format, value, message)
    DIRECTORY_EDITS = {
        "encrypted": (8, "<H", 1, "compressed, encrypted or zip64"),
        "zip64_size": (24, "<L", 0xFFFFFFFF, "compressed, encrypted or zip64"),
        "zip64_offset": (42, "<L", 0xFFFFFFFF, "compressed, encrypted or zip64"),
        "past_directory": ((20, 24), "<L", 1 << 20, r"\d+ bytes of data run past the central directory"),
        "other_local_header": (42, "<L", 0, "local header does not match the central directory"),
    }

    @pytest.mark.parametrize("edit", DIRECTORY_EDITS)
    def test_directory_entry_edit_refused(self, tiny_dataset, tmp_path, edit):
        field, fmt, value, message = self.DIRECTORY_EDITS[edit]
        path, entry = _cache(tiny_dataset, tmp_path)
        raw = bytearray(path.read_bytes())
        pos = _entry_offset(raw, "slf")
        for offset in field if isinstance(field, tuple) else (field,):
            struct.pack_into(fmt, raw, pos + offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: unreadable member 'slf': {message}"):
            read_feature_cache(path, TINY_GRID_N, entry, ALL_MEMBERS)

    def test_end_record_comment_refused(self, tiny_dataset, tmp_path):
        path, entry = _cache(tiny_dataset, tmp_path)
        path.write_bytes(path.read_bytes()[:-2] + b"\x04\x00note")
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: unreadable file: File is not a zip file"):
            read_feature_cache(path, TINY_GRID_N, entry, ALL_MEMBERS)

    # archives rewritten by conftest.rewrite_npz, as zipfile writes them (the
    # refusals of other dtypes and layouts are in test_dataset.py): (edit of
    # the members, npy versions, the message of the refusal or None)
    REWRITES = {
        "unchanged": (lambda m: None, None, None),
        "extra_member": (lambda m: m.update(extra=np.arange(3.0)), None, None),
        "header_last": (lambda m: m.update(header=m.pop("header")), None, None),
        "zero_rows": (lambda m: m.update(gcc=m["gcc"][:0]), None, None),
        "npy_3_0": (lambda m: None, {"gcc": (3, 0)}, "unreadable member 'gcc': not an npy"),
    }

    @pytest.mark.parametrize("rewrite", REWRITES)
    def test_rewritten_archive_read_or_refused(self, tiny_dataset, tmp_path, rewrite):
        edit, versions, message = self.REWRITES[rewrite]
        path, _ = _cache(tiny_dataset, tmp_path)
        rewrite_npz(path, edit, versions)
        if message is not None:
            with pytest.raises(InputError, match=rf"{FEATURES_NAME}: {message}"):
                read_archive(path, _FeaturesHeader, ALL_MEMBERS)
            return
        _, arrays = read_archive(path, _FeaturesHeader, ALL_MEMBERS)
        with np.load(path) as data:
            for name, array in arrays.items():
                assert array.shape == data[name].shape and array.tobytes() == data[name].tobytes()

    def test_reads_without_zipfile(self, tiny_dataset, tmp_path, monkeypatch):
        path, entry = _cache(tiny_dataset, tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("zipfile opened the archive")

        monkeypatch.setattr(zipfile, "ZipFile", refuse)
        gcc, slf, meta = read_feature_cache(path, TINY_GRID_N, entry, ALL_MEMBERS)
        assert gcc.dtype == slf.dtype == meta.dtype == np.float32


@dataclasses.dataclass(frozen=True)
class Inner:
    x: int
    y: float = 0.5


# (type, JSON value, path, defaults, the result or the message of the
# InputError at its pointer): the value is read by build as the one field
# of a dataclass, named by the path's last key
CONVERT_CASES = [
    (int, 3, ["a"], True, 3),
    (int, True, ["a"], True, "/a: expected an integer, got True"),
    (int, 2.0, ["a"], True, "/a: expected an integer, got 2.0"),
    (float, 3, ["a"], True, 3.0),
    (float, 0.25, ["a"], True, 0.25),
    (float, False, ["a"], True, "/a: expected a number, got False"),
    (float, "1", ["a"], True, "/a: expected a number, got '1'"),
    (float, math.nan, ["a"], True, "/a: expected a finite number, got nan"),
    (float, math.inf, ["a"], True, "/a: expected a finite number, got inf"),
    (float, -math.inf, ["a"], True, "/a: expected a finite number, got -inf"),
    (float, 10**400, ["a"], True, f"/a: expected a finite number, got {10**400}"),
    (bool, True, ["a"], True, True),
    (bool, 1, ["a"], True, "/a: expected true or false, got 1"),
    (str, "s", ["a"], True, "s"),
    (str, None, ["a"], True, "/a: expected a string, got None"),
    (tuple[int, float], [1, 2], ["a"], True, (1, 2.0)),
    (tuple[int, float], [1], ["a"], True, "/a: expected a list of 2 entries, got [1]"),
    (tuple[int, float], (1, 2.0), ["a"], True, "/a: expected a list of 2 entries, got (1, 2.0)"),
    (tuple[int, float], [1, True], ["a"], True, "/a/1: expected a number, got True"),
    (tuple[float, ...], [], ["a"], True, ()),
    (tuple[float, ...], [1, 2.5], ["a"], True, (1.0, 2.5)),
    (tuple[float, ...], {"0": 1}, ["a"], True, "/a: expected a list, got {'0': 1}"),
    (tuple[tuple[int, int], ...], [[1, 2], [3]], ["a"], True, "/a/1: expected a list of 2 entries, got [3]"),
    (tuple[tuple[int, int], ...], [[1, 2], [3, "x"]], ["a"], True, "/a/1/1: expected an integer, got 'x'"),
    (typing.Literal[1024], 1024, ["a"], True, 1024),
    (typing.Literal[1024], 1024.0, ["a"], True, "/a: expected one of (1024,), got 1024.0"),
    (typing.Literal[1], True, ["a"], True, "/a: expected one of (1,), got True"),
    (typing.Literal[500.0], 500, ["a"], True, "/a: expected one of (500.0,), got 500"),
    (typing.Literal["slf", "gcc"], "gcc", ["a"], True, "gcc"),
    (typing.Literal["slf", "gcc"], ["gcc"], ["a"], True, "/a: expected one of ('slf', 'gcc'), got ['gcc']"),
    (typing.Literal["gcc", "slf"], ["gcc"], ["a"], True, "/a: expected one of ('gcc', 'slf'), got ['gcc']"),
    (int | None, None, ["a"], True, None),
    (int | None, 4, ["a"], True, 4),
    (typing.Optional[int], "4", ["a"], True, "/a: expected an integer, got '4'"),
    (Inner, {"x": 1}, ["a"], True, Inner(1)),
    (Inner, {"x": 1}, ["a"], False, "/a/y: missing"),
    (Inner, {"x": 1, "y": 2}, ["a"], False, Inner(1, 2.0)),
    (Inner, {"x": 1, "z": 2}, ["a"], True, "/a/z: unknown key"),
    (Inner, [1], ["a"], True, "/a: must be a JSON object"),
    (tuple[Inner, ...], [{"x": 1}, {"y": 1.0}], ["a"], True, "/a/1/x: missing"),
    (tuple[Inner, ...], [{"x": 1, "y": 1.0}, {"x": "1"}], ["a"], False, "/a/1/x: expected an integer, got '1'"),
]


def read_field(tp, value, path, defaults=True):
    """value read by build as the field path[-1], of the type tp, of a
    one-field dataclass at the pointer path[:-1]."""
    one = dataclasses.make_dataclass("One", [(path[-1], tp)])
    return getattr(build(one, {path[-1]: value}, path[:-1], defaults), path[-1])


@pytest.mark.parametrize("tp, value, path, defaults, want", CONVERT_CASES)
def test_convert_table(tp, value, path, defaults, want):
    if isinstance(want, str) and want.startswith("/"):
        with pytest.raises(InputError) as info:
            read_field(tp, value, path, defaults)
        assert str(info.value) == want
    else:
        got = read_field(tp, value, path, defaults)
        assert got == want and type(got) is type(want)
        if isinstance(want, tuple):
            assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("tp", [dict, list, tuple, int | str, typing.Any])
def test_convert_unknown_type_raises_type_error(tp):
    with pytest.raises(TypeError, match=r"^/a: no JSON rule for the type "):
        read_field(tp, {}, ["a"])
