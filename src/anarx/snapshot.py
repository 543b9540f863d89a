"""Versioned, checksummed model snapshots.

The payload is plain JSON (floats round-trip exactly through repr), the
checksum covers the canonical payload encoding, and the version tag is
checked before anything is rebuilt. A loaded forecaster reproduces the
saved one bit for bit on any subsequent input sequence, structure
changes included.

Every number is stored once. The model holds one grid for the pool,
the node count, the delay line and the learner state, whose weights are
the node weights. ``"evolution"`` is null when evolution is off,
otherwise the forecaster's evolution controller, which holds all
evolution state: the policy, the error window, the contribution window
(``"contrib"``, the node forecasts :meth:`AnarxModel.evolve` reads), the
long-run squared-error sum and the learned-step count.

Version 3 fits one h-wide synapse per neo-fuzzy node. Versions 1 and 2
stored two tied synapses per node, and their covariance does not
collapse exactly in floating point, so they raise VersionMismatch.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .combiner import CombinerState
from .errors import AnarxError, CorruptSnapshot, VersionMismatch
from .model import AnarxModel, EvolutionPolicy
from .pipeline import OnlineForecaster

FORMAT = "anarx-snapshot"
VERSION = 3
READABLE = (3,)


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def snapshot_save(forecaster: OnlineForecaster, path) -> None:
    payload = {
        "model": forecaster.model.state_dict(),
        "combiner": forecaster.combiner.state_dict() if forecaster.combiner else None,
        "scale": list(forecaster.scale) if forecaster.scale else None,
        "meta": forecaster.meta,
        "evolution": _evolution_state(forecaster),
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
    return forecaster


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
    if len(window) > maxlen or len(rows) > maxlen:
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
