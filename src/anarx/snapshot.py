"""Versioned, checksummed model snapshots.

The payload is plain JSON (floats round-trip exactly through repr), the
checksum covers the canonical payload encoding, and the version tag is
checked before anything is rebuilt. A loaded forecaster reproduces the
saved one bit for bit on any subsequent input sequence.
"""

from __future__ import annotations

import hashlib
import json
import os

from .combiner import CombinerState
from .errors import AnarxError, CorruptSnapshot, VersionMismatch
from .model import AnarxModel
from .pipeline import OnlineForecaster

FORMAT = "anarx-snapshot"
VERSION = 1


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def snapshot_save(forecaster: OnlineForecaster, path) -> None:
    payload = {
        "model": forecaster.model.state_dict(),
        "combiner": forecaster.combiner.state_dict() if forecaster.combiner else None,
        "scale": list(forecaster.scale) if forecaster.scale else None,
        "meta": forecaster.meta,
    }
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "payload": payload,
        "sha256": _checksum(payload),
    }
    # write beside the target and rename over it, so a save that fails
    # partway leaves the previous file as it was
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def snapshot_load(path) -> OnlineForecaster:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptSnapshot(f"{path}: not valid snapshot JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise VersionMismatch(f"{path}: not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise VersionMismatch(
            f"{path}: snapshot version {doc.get('version')!r}, expected {VERSION}"
        )
    payload = doc.get("payload")
    if not isinstance(payload, dict) or "sha256" not in doc:
        raise CorruptSnapshot(f"{path}: missing payload or checksum")
    if _checksum(payload) != doc["sha256"]:
        raise CorruptSnapshot(f"{path}: checksum mismatch")
    try:
        model = AnarxModel.from_state(payload["model"])
        combiner = (
            CombinerState.from_state(payload["combiner"]) if payload.get("combiner") else None
        )
        if combiner is not None and combiner.c.shape != (model.n,):
            raise CorruptSnapshot(
                f"combiner has shape {combiner.c.shape}, the pool has {model.n} nodes"
            )
        scale = tuple(payload["scale"]) if payload.get("scale") else None
        if scale is not None and len(scale) != 2:
            raise CorruptSnapshot(f"scale must be (lo, hi), got {scale}")
        meta = payload.get("meta") or {}
    except (LookupError, TypeError, ValueError, AnarxError) as exc:
        # a checksummed payload that does not rebuild one consistent
        # forecaster is corrupt, whatever check caught it
        raise CorruptSnapshot(f"{path}: malformed payload ({exc})") from None
    return OnlineForecaster(model, combiner, scale, meta)
