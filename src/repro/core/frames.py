"""Typed array frames for the shm data plane's sparse residue.

The shared-memory backend keeps dense private views, shadow bit planes and
per-iteration scratch in shared segments; everything else -- sparse private
views, sparse shadow marks, reduction partials, untested-write captures,
the self-check access log, mark lists, induction finals and fault strings
-- used to travel as one pickle blob per block.  This module replaces that
blob with a self-describing binary frame built from struct-packed headers
and raw numpy array payloads, so a steady-state sparse run moves **zero
pickle** over the pipes (enforced by ``tests/test_shm_frames.py``).

Frame grammar (all integers little-endian)::

    frame    := u32 n_sections, section*
    section  := u8 kind, u16 key_len, key utf-8, payload[kind]
    array    := u8 dtype_len, dtype.str ascii, u64 count, raw bytes

One section per top-level residue key, so presence round-trips exactly
(an *empty* ``inductions`` dict is distinct from an absent one -- the
executor treats them differently).  Values that do not fit the typed
forms (non-numeric dtypes, oversized ints, exotic objects) fall back to a
single pickle section carrying just those keys; steady-state numeric
workloads never hit it.

Bit-identity notes: reduction-partial and logged mark-list values are
re-materialized as numpy scalars of the framed dtype.  Python floats frame
to ``float64`` losslessly, Python ints to ``int64`` (overflow falls back
to pickle), and every downstream consumer applies the same element-wise
cast a scalar ``data[index] = value`` would -- the golden parity matrix
runs serial vs shm to hold this equivalence.
"""

from __future__ import annotations

import pickle  # fallback section only; never used on the steady-state plane
import struct

import numpy as np

from repro.shadow.marklist import MarkList
from repro.util.bitset import BitSet

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")

_K_PICKLE = 0
_K_NAMED_ARRAYS = 1  # dict[str, (indices, values)] -- views / untested
_K_SHADOWS = 2       # dict[str, sparse 4-array or dense 4-plane payload]
_K_PARTIALS = 3      # dict[str, dict[int, scalar]]
_K_PAIR_LIST = 4     # sorted list[(name, index)] -- self-check access log
_K_INDUCTIONS = 5    # dict[str, int]
_K_FAULT = 6         # str
_K_MARKLISTS = 7     # dict[str, MarkList]

_SHADOW_SPARSE = 0
_SHADOW_DENSE = 1


class _Unframeable(Exception):
    """Raised when a value needs the pickle fallback section."""


# -- atoms ---------------------------------------------------------------------


def _put_str(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    buf += _U16.pack(len(raw))
    buf += raw


def _get_str(payload: bytes, off: int) -> tuple[str, int]:
    (n,) = _U16.unpack_from(payload, off)
    off += _U16.size
    return payload[off:off + n].decode("utf-8"), off + n


def _put_array(buf: bytearray, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.ndim != 1 or arr.dtype.kind not in "biufc":
        raise _Unframeable(f"cannot frame array with dtype {arr.dtype}")
    dt = arr.dtype.str.encode("ascii")
    buf += _U8.pack(len(dt))
    buf += dt
    buf += _U64.pack(arr.shape[0])
    buf += arr.tobytes()


def _get_array(payload: bytes, off: int) -> tuple[np.ndarray, int]:
    (dt_len,) = _U8.unpack_from(payload, off)
    off += _U8.size
    dtype = np.dtype(payload[off:off + dt_len].decode("ascii"))
    off += dt_len
    (count,) = _U64.unpack_from(payload, off)
    off += _U64.size
    arr = np.frombuffer(payload, dtype=dtype, count=count, offset=off)
    return arr, off + count * dtype.itemsize


def _put_index_array(buf: bytearray, indices) -> None:
    _put_array(buf, np.fromiter(indices, dtype=np.int64, count=len(indices)))


def _frame_scalars(values: list) -> np.ndarray:
    """Pack a list of numeric scalars, preserving numeric dtype; Python
    floats/ints land on float64/int64 (the cast every consumer applies
    anyway).  Anything else -- including bools, whose arithmetic semantics
    differ -- is unframeable."""
    if any(isinstance(v, bool) or isinstance(v, np.bool_) for v in values):
        raise _Unframeable("bool scalars")
    try:
        arr = np.array(values)
    except (ValueError, OverflowError) as exc:
        raise _Unframeable(str(exc)) from None
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise _Unframeable(f"cannot frame scalars as dtype {arr.dtype}")
    return arr


# -- per-kind payloads ----------------------------------------------------------


def _pack_named_arrays(buf: bytearray, mapping: dict) -> None:
    buf += _U32.pack(len(mapping))
    for name in sorted(mapping):
        indices, values = mapping[name]
        _put_str(buf, name)
        _put_array(buf, np.asarray(indices, dtype=np.int64))
        _put_array(buf, values)


def _unpack_named_arrays(payload: bytes, off: int) -> tuple[dict, int]:
    (n,) = _U32.unpack_from(payload, off)
    off += _U32.size
    out = {}
    for _ in range(n):
        name, off = _get_str(payload, off)
        indices, off = _get_array(payload, off)
        values, off = _get_array(payload, off)
        out[name] = (indices, values)
    return out, off


def _pack_shadows(buf: bytearray, shadows: dict) -> None:
    buf += _U32.pack(len(shadows))
    for name in sorted(shadows):
        payload = shadows[name]
        _put_str(buf, name)
        if (
            isinstance(payload, tuple)
            and len(payload) == 4
            and all(isinstance(p, BitSet) for p in payload)
        ):
            buf += _U8.pack(_SHADOW_DENSE)
            buf += _U64.pack(payload[0].size)
            for plane in payload:
                _put_array(buf, plane.words)
        elif (
            isinstance(payload, tuple)
            and len(payload) == 4
            and all(isinstance(p, np.ndarray) for p in payload)
        ):
            buf += _U8.pack(_SHADOW_SPARSE)
            for plane in payload:
                _put_array(buf, np.asarray(plane, dtype=np.int64))
        else:
            raise _Unframeable(f"unknown shadow payload for {name!r}")


def _unpack_shadows(payload: bytes, off: int) -> tuple[dict, int]:
    (n,) = _U32.unpack_from(payload, off)
    off += _U32.size
    out = {}
    for _ in range(n):
        name, off = _get_str(payload, off)
        (subkind,) = _U8.unpack_from(payload, off)
        off += _U8.size
        if subkind == _SHADOW_DENSE:
            (size,) = _U64.unpack_from(payload, off)
            off += _U64.size
            planes = []
            for _ in range(4):
                words, off = _get_array(payload, off)
                planes.append(BitSet(size, words=words))
            out[name] = tuple(planes)
        else:
            planes = []
            for _ in range(4):
                plane, off = _get_array(payload, off)
                planes.append(plane)
            out[name] = tuple(planes)
    return out, off


def _pack_partials(buf: bytearray, partials: dict) -> None:
    buf += _U32.pack(len(partials))
    for name in sorted(partials):
        partial = partials[name]
        order = sorted(partial)
        _put_str(buf, name)
        _put_index_array(buf, order)
        _put_array(buf, _frame_scalars([partial[i] for i in order]))


def _unpack_partials(payload: bytes, off: int) -> tuple[dict, int]:
    (n,) = _U32.unpack_from(payload, off)
    off += _U32.size
    out = {}
    for _ in range(n):
        name, off = _get_str(payload, off)
        indices, off = _get_array(payload, off)
        values, off = _get_array(payload, off)
        out[name] = dict(zip(indices.tolist(), values))
    return out, off


def _pack_pair_list(buf: bytearray, pairs: list) -> None:
    by_name: dict[str, list[int]] = {}
    for name, index in pairs:
        by_name.setdefault(name, []).append(int(index))
    buf += _U32.pack(len(by_name))
    # Sorted name order with sorted indices rebuilds the flat sorted list.
    for name in sorted(by_name):
        _put_str(buf, name)
        _put_index_array(buf, sorted(by_name[name]))


def _unpack_pair_list(payload: bytes, off: int) -> tuple[list, int]:
    (n,) = _U32.unpack_from(payload, off)
    off += _U32.size
    out: list[tuple[str, int]] = []
    for _ in range(n):
        name, off = _get_str(payload, off)
        indices, off = _get_array(payload, off)
        out.extend((name, index) for index in indices.tolist())
    return out, off


def _pack_inductions(buf: bytearray, inductions: dict) -> None:
    buf += _U32.pack(len(inductions))
    for name in sorted(inductions):
        _put_str(buf, name)
        try:
            buf += _I64.pack(int(inductions[name]))
        except (struct.error, TypeError, ValueError) as exc:
            raise _Unframeable(str(exc)) from None


def _unpack_inductions(payload: bytes, off: int) -> tuple[dict, int]:
    (n,) = _U32.unpack_from(payload, off)
    off += _U32.size
    out = {}
    for _ in range(n):
        name, off = _get_str(payload, off)
        (value,) = _I64.unpack_from(payload, off)
        off += _I64.size
        out[name] = value
    return out, off


def _pack_marklists(buf: bytearray, marklists: dict) -> None:
    buf += _U32.pack(len(marklists))
    for key in sorted(marklists):
        ml = marklists[key]
        if not isinstance(ml, MarkList):
            raise _Unframeable(f"marklist entry {key!r} is {type(ml).__name__}")
        _put_str(buf, key)
        _put_str(buf, ml.array)
        buf += _I64.pack(ml.proc)
        buf += _U8.pack(1 if ml.log_values else 0)
        levels = ml.levels
        buf += _U32.pack(len(levels))
        for marks in levels:
            buf += _I64.pack(marks.iteration)
            _put_index_array(buf, sorted(marks.writes))
            _put_index_array(buf, sorted(marks.exposed_reads))
            _put_index_array(buf, sorted(marks.updates))
            if marks.values:
                order = sorted(marks.values)
                buf += _U8.pack(1)
                _put_index_array(buf, order)
                _put_array(buf, _frame_scalars([marks.values[i] for i in order]))
            else:
                buf += _U8.pack(0)


def _unpack_marklists(payload: bytes, off: int) -> tuple[dict, int]:
    (n,) = _U32.unpack_from(payload, off)
    off += _U32.size
    out = {}
    for _ in range(n):
        key, off = _get_str(payload, off)
        array, off = _get_str(payload, off)
        (proc,) = _I64.unpack_from(payload, off)
        off += _I64.size
        (log_values,) = _U8.unpack_from(payload, off)
        off += _U8.size
        ml = MarkList(array, proc, log_values=bool(log_values))
        (n_levels,) = _U32.unpack_from(payload, off)
        off += _U32.size
        for _ in range(n_levels):
            (iteration,) = _I64.unpack_from(payload, off)
            off += _I64.size
            marks = ml.open_level(iteration)
            writes, off = _get_array(payload, off)
            exposed, off = _get_array(payload, off)
            updates, off = _get_array(payload, off)
            marks.writes.update(writes.tolist())
            marks.exposed_reads.update(exposed.tolist())
            marks.updates.update(updates.tolist())
            (has_values,) = _U8.unpack_from(payload, off)
            off += _U8.size
            if has_values:
                indices, off = _get_array(payload, off)
                values, off = _get_array(payload, off)
                marks.values.update(zip(indices.tolist(), values))
        out[key] = ml
    return out, off


# -- top level ------------------------------------------------------------------

#: residue/extras key -> (section kind, packer).  ``metrics`` (the slot-
#: overflow fallback, itself cold) deliberately rides the pickle section.
_PACKERS = {
    "views": (_K_NAMED_ARRAYS, _pack_named_arrays),
    "untested": (_K_NAMED_ARRAYS, _pack_named_arrays),
    "shadows": (_K_SHADOWS, _pack_shadows),
    "partials": (_K_PARTIALS, _pack_partials),
    "untested_reads": (_K_PAIR_LIST, _pack_pair_list),
    "untested_writes": (_K_PAIR_LIST, _pack_pair_list),
    "inductions": (_K_INDUCTIONS, _pack_inductions),
    "marklists": (_K_MARKLISTS, _pack_marklists),
}

_UNPACKERS = {
    _K_NAMED_ARRAYS: _unpack_named_arrays,
    _K_SHADOWS: _unpack_shadows,
    _K_PARTIALS: _unpack_partials,
    _K_PAIR_LIST: _unpack_pair_list,
    _K_INDUCTIONS: _unpack_inductions,
    _K_MARKLISTS: _unpack_marklists,
}


def pack_residue(residue: dict) -> bytes:
    """Encode a residue/extras dict; returns ``b""`` for an empty dict."""
    if not residue:
        return b""
    sections = bytearray()
    n_sections = 0
    leftover: dict = {}
    for key, value in residue.items():
        kind_packer = _PACKERS.get(key)
        if key == "fault" and isinstance(value, str):
            section = bytearray()
            _put_str(section, value)
            sections += _U8.pack(_K_FAULT)
            _put_str(sections, key)
            sections += section
            n_sections += 1
            continue
        if kind_packer is None:
            leftover[key] = value
            continue
        kind, packer = kind_packer
        section = bytearray()
        try:
            packer(section, value)
        except _Unframeable:
            leftover[key] = value
            continue
        sections += _U8.pack(kind)
        _put_str(sections, key)
        sections += section
        n_sections += 1
    if leftover:
        blob = pickle.dumps(leftover, protocol=pickle.HIGHEST_PROTOCOL)
        sections += _U8.pack(_K_PICKLE)
        _put_str(sections, "")
        sections += _U32.pack(len(blob))
        sections += blob
        n_sections += 1
    return bytes(_U32.pack(n_sections) + sections)


def unpack_residue(payload: bytes, offset: int, length: int) -> dict:
    """Decode a frame produced by :func:`pack_residue`."""
    if not length:
        return {}
    end = offset + length
    (n_sections,) = _U32.unpack_from(payload, offset)
    off = offset + _U32.size
    out: dict = {}
    for _ in range(n_sections):
        (kind,) = _U8.unpack_from(payload, off)
        off += _U8.size
        key, off = _get_str(payload, off)
        if kind == _K_PICKLE:
            (blob_len,) = _U32.unpack_from(payload, off)
            off += _U32.size
            out.update(pickle.loads(payload[off:off + blob_len]))
            off += blob_len
        elif kind == _K_FAULT:
            out[key], off = _get_str(payload, off)
        else:
            out[key], off = _UNPACKERS[kind](payload, off)
    if off != end:
        raise ValueError(
            f"residue frame decoded {off - offset} of {length} bytes"
        )
    return out


def pack_task_extras(extras: dict) -> bytes:
    """Encode dispatch-side task extras (inductions, marklists); shares the
    residue grammar so both pipe directions speak one format."""
    return pack_residue(extras)


def unpack_task_extras(payload: bytes, offset: int, length: int) -> dict:
    return unpack_residue(payload, offset, length)
