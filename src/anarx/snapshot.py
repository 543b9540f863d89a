"""Versioned, checksummed model snapshots.

A file is one JSON object written as the bytes
``{"format":"anarx-snapshot","version":6,"sha256":"<hex>","payload":``,
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
forecaster from it; this module holds the file format only. The
payload holds numbers and the settings that build the forecaster, each
once; the learner's block, saved under one key in either training
wiring, holds only its numbers, and its shape is the pool size. A
payload that does not rebuild one consistent forecaster makes the file
corrupt. A save moves no state of the saved forecaster, and a loaded
forecaster reproduces the saved one bit for bit on any subsequent input
sequence, structure changes included.

A save writes only a file a load reads: a state that holds a NaN or an
infinity raises NumericalDivergence before any file is written, and the
previous file stays as it was.

Version 6 is the one format a load reads. A file of any other version,
the older 1 to 5 included, raises VersionMismatch; re-running
``anarx snapshot save`` writes version 6, and ``scripts/migrate_snapshot.py``
rewrites a version-4 or -5 file as version 6.
"""

from __future__ import annotations

import hashlib
import json
import os

from .errors import AnarxError, CorruptSnapshot, NumericalDivergence, VersionMismatch
from .pipeline import OnlineForecaster

FORMAT = "anarx-snapshot"
VERSION = 6


def _header(sha256: str) -> bytes:
    return (f'{{"format":"{FORMAT}","version":{VERSION},'
            f'"sha256":{json.dumps(sha256)},"payload":').encode("ascii")


def _encode(payload: dict) -> bytes:
    """The file that holds ``payload``: the header, which names the
    digest of the payload bytes, those bytes, ``}`` and a newline.
    Raises NumericalDivergence if the payload holds a NaN or an infinity,
    which no load reads back."""
    try:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    except ValueError as exc:
        raise NumericalDivergence(f"the state holds a number that is not finite ({exc})") from None
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
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
    except ValueError as exc:  # bad JSON, bad UTF-8 or an int of too many digits
        raise CorruptSnapshot(f"{path}: not valid snapshot JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise VersionMismatch(f"{path}: not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise VersionMismatch(
            f"{path}: snapshot version {doc.get('version')!r} cannot be loaded; "
            f"re-run `anarx snapshot save` to write version {VERSION}"
        )
    payload, sha256 = doc.get("payload"), doc.get("sha256")
    if not isinstance(payload, dict) or not isinstance(sha256, str):
        raise CorruptSnapshot(f"{path}: missing payload or checksum")
    head = _header(sha256)
    if not (data.startswith(head) and data.endswith(b"}\n")
            and hashlib.sha256(data[len(head):-2]).hexdigest() == sha256):
        raise CorruptSnapshot(f"{path}: checksum mismatch")
    try:
        return OnlineForecaster.from_state(payload)
    except (LookupError, TypeError, ValueError, AnarxError) as exc:
        # a checksummed payload that does not rebuild one consistent
        # forecaster is corrupt, whatever check caught it
        raise CorruptSnapshot(f"{path}: malformed payload ({exc})") from None
