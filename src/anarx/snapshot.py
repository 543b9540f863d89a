"""Versioned, checksummed model snapshots.

A file is one JSON object written as the bytes
``{"format":"anarx-snapshot","version":4,"sha256":"<hex>","payload":``,
then the payload, then ``}`` and a newline. The payload is encoded
once, compact and canonical (sorted keys, no spaces; floats round-trip
exactly through repr), and ``sha256`` is the digest of those payload
bytes as written. A load parses the file once, checks that it starts
with the header its own ``sha256`` gives and ends with ``}`` and a
newline, and hashes the bytes in between, so nothing is encoded again.
A file that was re-dumped or pretty-printed, even to the same values,
fails the checksum and is corrupt. The version tag is checked before
anything is rebuilt.

The payload is the forecaster's own state,
:meth:`~anarx.pipeline.OnlineForecaster.state_dict`, and
:meth:`~anarx.pipeline.OnlineForecaster.from_state` rebuilds the
forecaster from it; this module holds the file format only. A payload
that does not rebuild one consistent forecaster makes the file corrupt.
A loaded forecaster reproduces the saved one bit for bit on any
subsequent input sequence, structure changes included.

Version 3 files still load. Their checksum covers the canonical
encoding of the parsed payload, and they store each ``P`` whole; a
``P`` that is not finite and exactly symmetric makes the file corrupt,
and the others are packed before the one rebuild both versions share.
Versions 1 and 2 stored two tied synapses per node, and their
covariance does not collapse exactly in floating point, so they raise
VersionMismatch.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .errors import AnarxError, CorruptSnapshot, VersionMismatch, read_floats
from .learning import packed
from .pipeline import OnlineForecaster

FORMAT = "anarx-snapshot"
VERSION = 4
READABLE = (3, 4)


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")


def _checksum(payload: dict) -> str:
    """The version-3 checksum: the digest of the canonical re-encoding."""
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _header(sha256: str) -> bytes:
    return (f'{{"format":"{FORMAT}","version":{VERSION},'
            f'"sha256":{json.dumps(sha256)},"payload":').encode("ascii")


def _encode(payload: dict) -> bytes:
    """The file that holds ``payload``: the header, which names the
    digest of the payload bytes, those bytes, ``}`` and a newline."""
    body = _canonical(payload)
    return _header(hashlib.sha256(body).hexdigest()) + body + b"}\n"


def snapshot_save(forecaster: OnlineForecaster, path) -> None:
    data = _encode(forecaster.state_dict())
    # write beside the target and rename over it, so a save that fails
    # partway leaves the previous file as it was
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def snapshot_load(path) -> OnlineForecaster:
    return snapshot_read(path)[1]


def snapshot_read(path) -> tuple:
    """Load a snapshot: (its format version, the forecaster it holds)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptSnapshot(f"{path}: not valid snapshot JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise VersionMismatch(f"{path}: not a {FORMAT} file")
    version = doc.get("version")
    if version in (1, 2):
        raise VersionMismatch(
            f"{path}: snapshot version {version} uses the two-synapse node layout "
            f"and cannot be loaded; re-run `anarx snapshot save` to write version {VERSION}"
        )
    if version not in READABLE:
        raise VersionMismatch(
            f"{path}: snapshot version {version!r}, expected one of {READABLE}"
        )
    payload, sha256 = doc.get("payload"), doc.get("sha256")
    if not isinstance(payload, dict) or not isinstance(sha256, str):
        raise CorruptSnapshot(f"{path}: missing payload or checksum")
    if version == 3:
        intact = _checksum(payload) == sha256
    else:
        head = _header(sha256)
        intact = (data.startswith(head) and data.endswith(b"}\n")
                  and hashlib.sha256(data[len(head):-2]).hexdigest() == sha256)
    if not intact:
        raise CorruptSnapshot(f"{path}: checksum mismatch")
    try:
        if version == 3:
            _pack_covariances(payload["model"])
        forecaster = OnlineForecaster.from_state(payload)
    except (LookupError, TypeError, ValueError, AnarxError) as exc:
        # a checksummed payload that does not rebuild one consistent
        # forecaster is corrupt, whatever check caught it
        raise CorruptSnapshot(f"{path}: malformed payload ({exc})") from None
    return version, forecaster


def _pack_covariances(model: dict) -> None:
    """Give a version-3 model state the version-4 learner rows in place:
    each RLS covariance, stored whole, becomes its packed upper triangle.
    Raise CorruptSnapshot for one that is not finite and exactly
    symmetric, which no learner saves."""
    rows = [model["stacked_state"]] if model["training"] == "stacked" else model["learner_states"]
    for row in rows:
        if "P" in row:
            P = np.array([read_floats(r, "covariance row") for r in row["P"]])
            if P.ndim != 2 or not (np.isfinite(P).all() and np.array_equal(P, P.T)):
                raise CorruptSnapshot("covariance must be finite and exactly symmetric")
            row["P"] = packed(P).tolist()

