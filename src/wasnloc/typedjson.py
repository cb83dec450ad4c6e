"""JSON artifacts read into typed dataclasses, checked against the field types.

:func:`loads` is the package's one JSON decoder, and one walker, driven by
``typing.get_type_hints``, reads every JSON artifact into dataclasses: the
CLI's config files, each example's scene.json, the entries of a dataset's
manifest and the header of each binary artifact (features.bin and
checkpoints, both written by :func:`write_archive` and read by
:func:`read_archive`). Errors are :class:`InputError`, at the JSON pointer
of the offending value, which :func:`reading` prefixes with the file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import re
import types
import typing
import zipfile

import numpy as np


class InputError(ValueError):
    """Bad input of any reader: the message starts with path, the file, then
    the pointer, member or field; path is None until :func:`reading` sets it."""

    def __init__(self, message: str, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


@contextlib.contextmanager
def reading(path):
    """Raise an InputError or OSError of the block that reads path again as
    an InputError naming path; one that names its file already passes."""
    try:
        yield
    except InputError as exc:
        if exc.path is not None:
            raise
        raise InputError(str(exc), path) from exc
    except OSError as exc:
        raise InputError(exc.strerror or str(exc), path) from exc


def _pointer(path) -> str:
    """The JSON pointer of a path: a list of keys, or a (parent path, key)
    pair, which a walker passes down so that no pointer is built unless a
    value fails."""
    keys = []
    while isinstance(path, tuple):
        path, key = path
        keys.append(str(key))
    return "/" + "/".join([*path, *reversed(keys)])


def loads(text: str | bytes):
    """The JSON value of text (bytes are decoded as UTF-8); InputError at
    / if it is not valid JSON."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:  # also bad UTF-8 and integer literals beyond the digit limit
        raise InputError(f"/: not valid JSON: {exc}") from exc


# The JSON values each scalar field type takes, and how an error names them.
_SCALARS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


def convert(tp, value, path, defaults=True):
    """The JSON value converted to the type tp; InputError at path if it is
    not of that type. An int takes a JSON integer, a float any finite JSON
    number (never NaN or Infinity, which Python's json module reads), a
    bool true or false, a str a string (a bool is never a number); a
    tuple a list of the right length, each entry converted at its own
    pointer (path/k), a Literal one of its values, X | None null or an X, a
    dataclass an object (:func:`build`, which defaults is passed on to). Any
    other type raises TypeError, so a new config field cannot go unchecked."""
    if tp in _SCALARS:
        accepted, expected = _SCALARS[tp]
        if isinstance(value, accepted) and (tp is bool or not isinstance(value, bool)):
            try:
                converted = tp(value)
            except OverflowError:  # a JSON integer beyond the float range
                converted = math.inf
            if tp is not float or math.isfinite(converted):
                return converted
            expected = "a finite number"
    elif dataclasses.is_dataclass(tp):
        return build(tp, value, path, defaults)
    else:
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if origin is tuple:
            variadic = args[-1:] == (Ellipsis,)
            if isinstance(value, list) and (variadic or len(value) == len(args)):
                items = args[:1] * len(value) if variadic else args
                return tuple(convert(t, v, (path, k), defaults) for k, (t, v) in enumerate(zip(items, value)))
            expected = "a list" if variadic else f"a list of {len(args)} entries"
        elif origin is typing.Literal:
            if any(type(value) is type(a) and value == a for a in args):
                return value
            expected = f"one of {args}"
        elif origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
            inner = args[0] if args[1] is type(None) else args[1]
            return None if value is None else convert(inner, value, path, defaults)
        else:
            raise TypeError(f"{_pointer(path)}: no JSON rule for the type {tp!r}")
    raise InputError(f"{_pointer(path)}: expected {expected}, got {value!r}")


@functools.cache
def _fields(cls) -> tuple[dict, list[str]]:
    """cls's field types by name, and the names of the fields with no default."""
    hints = typing.get_type_hints(cls)
    return hints, [f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is dataclasses.MISSING]


def build(cls, obj, path, defaults=True):
    """The dataclass cls from a JSON object whose keys name its fields,
    each value converted by :func:`convert` with its field's type. An
    unknown key, a bad value or a missing field with no default raises
    InputError at its own pointer, a value the dataclass rejects at the
    object's. With defaults False every field must be present, in nested
    dataclasses too: an artifact's header takes no value from a default,
    which may have changed since the file was written."""
    if not isinstance(obj, dict):
        raise InputError(f"{_pointer(path)}: must be a JSON object")
    hints, required = _fields(cls)
    kwargs = {}
    for key, value in obj.items():
        if key not in hints:
            raise InputError(f"{_pointer((path, key))}: unknown key")
        kwargs[key] = convert(hints[key], value, (path, key), defaults)
    for key in required if defaults else hints:
        if key not in kwargs:
            raise InputError(f"{_pointer((path, key))}: missing")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{_pointer(path)}: {exc}") from exc


def write_archive(path, header, **arrays) -> None:
    """Write an npz archive: member ``header`` holds the UTF-8 JSON of the
    header dataclass's fields as uint8, and each named array is a member of
    its own as little-endian float32. Zip members carry numpy's fixed 1980
    timestamp, so equal inputs give equal bytes."""
    payload = np.frombuffer(json.dumps(dataclasses.asdict(header)).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, header=payload, **{name: np.asarray(a, dtype="<f4") for name, a in arrays.items()})


# The npy 1.0 header np.savez writes for a C-ordered 1-D or 2-D array: magic,
# header length, the dtype and the (P,) or (P, W) shape, space padding and a
# newline. The dtype is one type code and size, so a subarray or structured
# dtype cannot change the shape.
_NPY_HEADER = re.compile(
    rb"\x93NUMPY\x01\x00(..)\{'descr': '([<>|][a-z]\d+)', 'fortran_order': False, 'shape': \((\d+),(?: (\d+))?\), \} *\n",
    re.DOTALL,
)
# Bytes of a member read at a time, copied on while in cache; the first read
# holds any npy 1.0 header (at most 65545 bytes).
_CHUNK = 1 << 18


def _npy_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array of a member with an :data:`_NPY_HEADER` header, read into a
    new writable array (a checkpoint's arrays become buffers trained in
    place); ValueError or TypeError for another header, an unknown dtype or
    data of another size than the shape's. Matching the header costs far
    less than numpy's reader, which evaluates it with ``ast.literal_eval``."""
    info = zf.getinfo(name)
    with zf.open(info) as fh:
        chunk = fh.read(_CHUNK)  # all of a features.bin member
        match = _NPY_HEADER.match(chunk)
        if match is None or match.end() != 10 + int.from_bytes(match[1], "little"):
            raise ValueError("not an npy 1.0 C-ordered 1-D or 2-D array")
        dtype, shape = np.dtype(match[2]), tuple(int(n) for n in match.group(3, 4) if n is not None)
        if math.prod(shape) * dtype.itemsize != info.file_size - match.end():
            raise ValueError(f"{info.file_size - match.end()} bytes of data for {shape} {dtype}")
        array = np.empty(shape, dtype)
        data = memoryview(array.reshape(-1).view(np.uint8))
        read = len(chunk) - match.end()
        data[:read] = memoryview(chunk)[match.end() :]
        for start in range(read, len(data), _CHUNK):  # the last read checks the CRC-32
            fh.readinto(data[start : start + _CHUNK])
    return array


def read_archive(path, header_cls, members: tuple[str, ...], **expected):
    """(header, arrays) of an archive written by :func:`write_archive`: the
    header built as a header_cls with every field present, and the named
    float32 members by name, writable. The header fields in expected must
    hold those values, compared in order before the header is built, so
    that a file of another version (put first) is refused as such. Anything
    else, a member in another layout than np.savez writes too, raises
    InputError naming path and the member, or the header field's pointer."""
    with reading(path):
        arrays, member = {}, None  # member: the one being read, for the error message
        try:
            with zipfile.ZipFile(path) as zf:  # BadZipFile unless a zip archive
                names = zf.namelist()
                for member in ("header", *members):
                    if f"{member}.npy" in names:
                        arrays[member] = _npy_member(zf, f"{member}.npy")  # BadZipFile on a failed CRC-32
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:  # OSError: left to reading
            where = f"member {member!r}" if member else "file"
            raise InputError(f"unreadable {where}: {exc}") from exc
        for member in ("header", *members):
            if member not in arrays:
                raise InputError(f"no member {member!r}")
            dtype = np.dtype(np.uint8 if member == "header" else "<f4")
            if arrays[member].dtype != dtype:
                raise InputError(f"member {member!r} holds {arrays[member].dtype}, expected {dtype}")
        try:
            obj = loads(arrays.pop("header").tobytes())
            for key, want in expected.items():
                if isinstance(obj, dict) and obj.get(key) != want:
                    raise InputError(f"/{key}: {key} {obj.get(key)!r}, expected {want!r}")
            return build(header_cls, obj, [], defaults=False), arrays
        except InputError as exc:
            raise InputError(f"header {exc}") from exc
