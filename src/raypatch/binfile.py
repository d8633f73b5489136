"""The container of RPDS datasets and RPCK checkpoints, integers little-endian:

    magic (4 bytes) | u32 version | u64 json_len | JSON header (sorted keys) | body
"""

import json
import os
import struct

_PREFIX = struct.Struct("<4sIQ")  # magic, version, json_len


def write_header(fh, magic, version, header):
    """Write the dict ``header`` behind magic and version; returns the bytes written."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return fh.write(_PREFIX.pack(magic, version, len(blob)) + blob)


def read_exact(fh, n, path):
    """The next ``n`` bytes of ``fh``, or a ValueError naming ``path`` if fewer are left."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= n <= left:
        raise ValueError(f"{path}: truncated: {n} bytes needed at {fh.tell()}, {left} left")
    return fh.read(n)


def read_header(fh, path, magic, version):
    """Check magic and version, then return the JSON header, which must be an object."""
    got, found, n = _PREFIX.unpack(read_exact(fh, _PREFIX.size, path))
    if (got, found) != (magic, version):
        raise ValueError(f"{path}: not an {magic.decode()} file of version {version} "
                         f"(magic {got!r}, version {found})")
    blob = read_exact(fh, n, path)
    try:
        header = json.loads(blob)
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValueError(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    return header
