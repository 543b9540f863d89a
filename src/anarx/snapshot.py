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
anything is rebuilt. A loaded forecaster reproduces the saved one bit
for bit on any subsequent input sequence, structure changes included.

Every number is stored once. The model holds one grid for the pool,
the node count, the delay line and its capacity, and the learner state,
whose weights are the node weights and, for RLS, whose covariance ``P``
is its packed upper triangle. ``"evolution"`` is null when
evolution is off, otherwise the forecaster's evolution controller, which
holds all evolution state: the policy, the error window, the
contribution window (``"contrib"``, the node forecasts
:meth:`AnarxModel.evolve` reads), the long-run squared-error sum and the
learned-step count.

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
import math
import os

import numpy as np

from .combiner import CombinerState
from .errors import AnarxError, CorruptSnapshot, VersionMismatch
from .learning import packed
from .model import AnarxModel, EvolutionPolicy
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
    data = _encode({
        "model": forecaster.model.state_dict(),
        "combiner": forecaster.combiner.state_dict() if forecaster.combiner else None,
        "scale": list(forecaster.scale) if forecaster.scale else None,
        "meta": forecaster.meta,
        "evolution": _evolution_state(forecaster),
    })
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
        model = AnarxModel.from_state(payload["model"])
        combiner = (
            CombinerState.from_state(payload["combiner"]) if payload.get("combiner") else None
        )
        if combiner is not None and combiner.c.shape != (model.n,):
            raise CorruptSnapshot(
                f"combiner has shape {combiner.c.shape}, the pool has {model.n} nodes"
            )
        scale = payload.get("scale") or None
        meta = payload.get("meta") or {}
        evolution = payload["evolution"]
        forecaster = OnlineForecaster(
            model, combiner, scale, meta,
            evolution=None if evolution is None else _policy(evolution["policy"]),
        )
        if evolution is not None:
            _restore_evolution(forecaster, evolution)
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
            P = np.array(row["P"], dtype=float)
            if P.ndim != 2 or not (np.isfinite(P).all() and np.array_equal(P, P.T)):
                raise CorruptSnapshot("covariance must be finite and exactly symmetric")
            row["P"] = packed(P).tolist()


def _evolution_state(forecaster: OnlineForecaster) -> dict | None:
    policy = forecaster.evolution
    if policy is None:
        return None
    return {
        "policy": policy if policy == "auto" else vars(policy).copy(),
        "err_window": list(forecaster.err_window),
        "long_run_sq": forecaster.long_run_sq,
        "learned_steps": forecaster.learned_steps,
        "contrib": [list(row) for row in forecaster.contrib_window],
    }


def _policy(state):
    return "auto" if state == "auto" else EvolutionPolicy(**state)


def _restore_evolution(forecaster: OnlineForecaster, state: dict) -> None:
    """Refill a loaded forecaster's controller; raise CorruptSnapshot for
    a state that no forecaster could have saved."""
    window = [float(v) for v in state["err_window"]]
    long_run_sq = float(state["long_run_sq"])
    learned_steps = state["learned_steps"]
    rows = [np.array(row, dtype=float) for row in state["contrib"]]
    maxlen = forecaster.err_window.maxlen
    n = forecaster.model.n
    # the forecaster appends to both windows on every learned step and
    # clears both on a structure change
    if len(rows) != len(window) or len(window) > maxlen:
        raise CorruptSnapshot(
            f"{len(window)} window errors and {len(rows)} contribution rows, "
            f"the policy window is {maxlen}"
        )
    if not all(math.isfinite(v) and v >= 0.0 for v in [long_run_sq, *window]):
        raise CorruptSnapshot("squared errors must be finite and nonnegative")
    if type(learned_steps) is not int or learned_steps < len(window):
        raise CorruptSnapshot(f"learned step count {learned_steps!r} does not cover the window")
    if not all(row.shape == (n,) and np.isfinite(row).all() for row in rows):
        raise CorruptSnapshot(f"contribution rows must be {n} finite values, one per node")
    forecaster.err_window.extend(window)
    forecaster.long_run_sq = long_run_sq
    forecaster.learned_steps = learned_steps
    forecaster.contrib_window.extend(row.tolist() for row in rows)
