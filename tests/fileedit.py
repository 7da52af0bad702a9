"""Read and edit versioned files (a JSON header line, then a raw float64
payload) the way a hand edit or a damaged file would change them."""

import json

import numpy as np


def read_file(path):
    """(header, payload) of a versioned file; payload is None without one."""
    line, _, rest = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    if not isinstance(header, dict) or "payload" not in header:
        return header, None
    return header, np.frombuffer(rest, "<f8").reshape(header["payload"]["shape"]).copy()


def edit_file(path, value, *, header=None, payload=None):
    """Set one value of a versioned file and write it back.

    `header` is a path of keys into the header (an empty path replaces the
    whole header); `payload` is an index into the payload array.  The header
    line is written back with json.dumps, which writes NaN and Infinity.
    """
    doc, data = read_file(path)
    if payload is not None:
        data[payload] = value
    else:
        doc = set_at(doc, header or [], value)
    tail = b"" if data is None else data.tobytes()
    path.write_bytes((json.dumps(doc) + "\n").encode() + tail)


def set_at(doc, keys, value):
    """`doc` with the value at a path of keys set (an empty path replaces the whole of it)."""
    if not keys:
        return value
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return doc
