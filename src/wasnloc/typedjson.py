"""JSON artifacts read into typed dataclasses, checked against the field types.

:func:`loads` is the package's one JSON decoder, and one walker,
:func:`build`, driven by ``typing.get_type_hints``, reads every JSON
artifact into dataclasses: the CLI's config files, each example's
scene.json, the entries of a dataset's manifest and the header of each
binary artifact (features.bin and checkpoints: npz archives that
:func:`write_archive` writes with np.savez, so np.load opens them, and
:func:`read_archive` reads from the zip records themselves, without
zipfile, for about what reading the bytes costs).
Errors are :class:`InputError`, at the JSON pointer of the offending
value, which :func:`reading` prefixes with the file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import re
import struct
import types
import typing
import zlib

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


def _converter(tp):
    """A function of (value, path, defaults) that returns the JSON value
    converted to the type tp, or raises InputError at path if it is not of
    that type. An int takes a JSON integer, a float any finite JSON number
    (never NaN or Infinity, which Python's json module reads), a bool true
    or false, a str a string (a bool is never a number); a tuple a list of
    the right length, each entry converted at its own pointer (path/k), a
    Literal one of its values, X | None null or an X, a dataclass an object
    (:func:`build`, which defaults is passed on to). Any other type raises
    TypeError on its first value, so a new config field cannot go
    unchecked. The rule is chosen once, not for each value (hashing a
    Literal alone takes about a microsecond); :func:`_fields` keeps one
    converter per field, since a cache by type would mix up Literals equal
    but for their order."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return functools.partial(build, tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _converter(args[0] if args[1] is type(None) else args[1])
        return lambda value, path, defaults: None if value is None else inner(value, path, defaults)
    if origin is tuple:
        variadic = args[-1:] == (Ellipsis,)
        items = [_converter(t) for t in args[: 1 if variadic else None]]
        expected = "a list" if variadic else f"a list of {len(items)} entries"
    elif origin is typing.Literal:
        expected, values = f"one of {args}", tuple((type(a), a) for a in args)
    elif tp in (int, float, bool, str):  # the JSON values each takes, and how an error names them
        accepted = (int, float) if tp is float else tp
        expected = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}[tp]
    else:
        expected = None

    def conv(value, path, defaults):
        if expected is None:
            raise TypeError(f"{_pointer(path)}: no JSON rule for the type {tp!r}")
        if origin is tuple:
            if isinstance(value, list) and (variadic or len(value) == len(items)):
                pairs = zip(items * len(value) if variadic else items, value)
                return tuple([c(v, (path, k), defaults) for k, (c, v) in enumerate(pairs)])
        elif origin is typing.Literal:
            if (type(value), value) in values:  # type-strict: 1 is not 1.0 or true
                return value
        elif isinstance(value, accepted) and (tp is bool or not isinstance(value, bool)):
            try:
                converted = tp(value)
            except OverflowError:  # a JSON integer beyond the float range
                converted = math.inf
            if tp is not float or math.isfinite(converted):
                return converted
            raise InputError(f"{_pointer(path)}: expected a finite number, got {value!r}")
        raise InputError(f"{_pointer(path)}: expected {expected}, got {value!r}")

    return conv


@functools.cache
def _fields(cls) -> tuple[dict, list[str]]:
    """cls's converter of each field by name, and the fields with no default."""
    converters = {name: _converter(tp) for name, tp in typing.get_type_hints(cls).items()}
    return converters, [f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is dataclasses.MISSING]


def build(cls, obj, path, defaults=True):
    """The dataclass cls from a JSON object whose keys name its fields,
    each value converted by the :func:`_converter` of its field's type. An
    unknown key, a bad value or a missing field with no default raises
    InputError at its own pointer, a value the dataclass rejects at the
    object's. With defaults False every field must be present, in nested
    dataclasses too: an artifact's header takes no value from a default,
    which may have changed since the file was written."""
    if not isinstance(obj, dict):
        raise InputError(f"{_pointer(path)}: must be a JSON object")
    converters, required = _fields(cls)
    kwargs = {}
    for key, value in obj.items():
        if key not in converters:
            raise InputError(f"{_pointer((path, key))}: unknown key")
        kwargs[key] = converters[key](value, (path, key), defaults)
    for key in required if defaults else converters:
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
# The zip records np.savez writes (zip64 sizes in local headers only): a signature and the fields read.
_END = struct.Struct("<4s6xH2LH")  # entry count, directory size and offset, comment length
_ENTRY = struct.Struct("<4s4x2H4x3L3H8xL")  # flags, method, CRC-32, sizes, name/extra/comment lengths, offset
_LOCAL = struct.Struct("<4s22x2H")  # name and extra lengths


def _directory(fh) -> tuple[dict[bytes, tuple], int]:
    """The zip file fh's central directory entries (flags, method, CRC-32,
    sizes, offset) by member name, and its offset, where member data ends."""
    end = fh.seek(0, 2) - _END.size
    fh.seek(max(end, 0))
    signature, count, size, offset, comment = _END.unpack(fh.read(_END.size).ljust(_END.size, b"\0"))
    if signature != b"PK\x05\x06" or comment or offset + size != end:  # np.savez writes no comment
        raise ValueError("File is not a zip file")
    fh.seek(offset)
    directory, table, pos = {}, fh.read(size), 0
    for _ in range(count):  # struct.error if the entries run past the directory
        signature, *entry, n_name, n_extra, n_comment, local = _ENTRY.unpack_from(table, pos)
        if signature != b"PK\x01\x02":
            raise ValueError("Bad magic number for central directory")
        directory[table[pos + _ENTRY.size : pos + _ENTRY.size + n_name]] = (*entry, local)
        pos += _ENTRY.size + n_name + n_extra + n_comment
    return directory, offset


def _npy_member(fh, name: str, entry: tuple, end: int) -> np.ndarray:
    """The member name of the zip file fh read into a new writable array (a
    checkpoint's become buffers trained in place): ValueError or TypeError
    unless it is stored, before end, as its directory entry says, under an
    :data:`_NPY_HEADER` header, and of the entry's CRC-32."""
    flags, method, crc, packed, size, local = entry
    if flags & ~0x800 or method or packed != size or 0xFFFFFFFF in (size, local):  # 0x800: a UTF-8 name
        raise ValueError(f"compressed, encrypted or zip64 (method {method}, flags {flags:#x}, {packed} of {size} B)")
    fh.seek(local)
    signature, n_name, n_extra = _LOCAL.unpack(fh.read(_LOCAL.size))
    if signature != b"PK\x03\x04" or fh.read(n_name) != name.encode():
        raise ValueError("local header does not match the central directory")
    if fh.seek(n_extra, 1) + size > end:
        raise ValueError(f"{size} bytes of data run past the central directory")
    head = fh.read(10)
    head += fh.read(int.from_bytes(head[8:], "little"))
    match = _NPY_HEADER.fullmatch(head)  # so the header is as long as it says
    if match is None:
        raise ValueError("not an npy 1.0 C-ordered 1-D or 2-D array")
    dtype, shape = np.dtype(match[2]), tuple(int(n) for n in match.group(3, 4) if n is not None)
    if math.prod(shape) * dtype.itemsize != size - len(head):
        raise ValueError(f"{size - len(head)} bytes of data for {shape} {dtype}")
    data = (array := np.empty(shape, dtype)).reshape(-1).view(np.uint8)
    if fh.readinto(data) != len(data) or zlib.crc32(data, zlib.crc32(head)) != crc:
        raise ValueError(f"Bad CRC-32 for file {name!r}")
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
            with open(path, "rb") as fh:
                directory, end = _directory(fh)
                for member in ("header", *members):
                    if (entry := directory.get(f"{member}.npy".encode())) is not None:
                        arrays[member] = _npy_member(fh, f"{member}.npy", entry, end)
        except (ValueError, TypeError, struct.error) as exc:  # OSError: left to reading
            where = f"member {member!r}" if member else "file"
            raise InputError(f"unreadable {where}: {exc}") from exc
        for member in ("header", *members):
            if member not in arrays:
                raise InputError(f"no member {member!r}")
            if arrays[member].dtype != (dtype := np.dtype(np.uint8 if member == "header" else "<f4")):
                raise InputError(f"member {member!r} holds {arrays[member].dtype}, expected {dtype}")
        try:
            obj = loads(arrays.pop("header").tobytes())
            for key, want in expected.items():
                if isinstance(obj, dict) and obj.get(key) != want:
                    raise InputError(f"/{key}: {key} {obj.get(key)!r}, expected {want!r}")
            return build(header_cls, obj, [], defaults=False), arrays
        except InputError as exc:
            raise InputError(f"header {exc}") from exc
