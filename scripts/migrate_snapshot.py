#!/usr/bin/env python3
"""Rewrite a snapshot of format version 4 or 5 as the current version:
    PYTHONPATH=src python3 scripts/migrate_snapshot.py OLD.json NEW.json

Versions 4 and 5 saved the learner as rows: one row (``stacked_state``)
in stacked training, one per node (``learner_states``) in independent
training, each with its weights ``w`` and the adaptive gain ``r`` or the
packed RLS covariance ``P``, beside a node count ``n_nodes``. Version 6
saves the learner's whole block under ``learner_state``: ``w`` as a
list of rows, ``r`` as one list, ``P`` as one packed triangle per row,
and for RLS the pending gains ``U`` with their count ``pending``. A
version-4 or -5 save folded every pending RLS gain, so the block holds
none; the node count is the block's shape and is dropped. Version 4 is
version 5 plus a ``meta`` copy of the run config and each row's learner
settings, which the conversion leaves out.

The old file's checksum is checked first, as its own version checked
it. The converted payload is rebuilt and saved with ``snapshot_save``,
so the new file passes every check a load makes, and the loaded
forecaster continues bit for bit as the run that saved the old file
did after that save.
"""

import argparse
import hashlib
import json
import sys

from anarx.errors import AnarxError
from anarx.pipeline import OnlineForecaster
from anarx.snapshot import FORMAT, snapshot_save

VERSIONS = (4, 5)


def model_state(model: dict) -> dict:
    """The current model state of a version-4 or -5 one."""
    rows = [model["stacked_state"]] if "stacked_state" in model else model["learner_states"]
    block = {key: [row[key] for row in rows] for key in ("w", "r", "P") if key in rows[0]}
    if "P" in block:
        block.update(U=[[] for _ in rows], pending=0)
    skip = {"n_nodes", "stacked_state", "learner_states"}
    return {**{key: value for key, value in model.items() if key not in skip},
            "learner_state": block}


def migrate(data: bytes) -> OnlineForecaster:
    """The forecaster a version-4 or -5 file holds. Raises ValueError
    for a file of another format or version, or one whose bytes fail its
    checksum, and what ``OnlineForecaster.from_state`` raises for a
    payload that does not rebuild one."""
    doc = json.loads(data)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT or doc.get("version") not in VERSIONS:
        raise ValueError(f"not a {FORMAT} file of version {' or '.join(map(str, VERSIONS))}")
    head = (f'{{"format":"{FORMAT}","version":{doc["version"]},'
            f'"sha256":{json.dumps(doc["sha256"])},"payload":').encode()
    if not (data.startswith(head) and data.endswith(b"}\n")
            and hashlib.sha256(data[len(head):-2]).hexdigest() == doc["sha256"]):
        raise ValueError("checksum mismatch")
    payload = doc["payload"]
    return OnlineForecaster.from_state({**payload, "model": model_state(payload["model"])})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="snapshot of version 4 or 5")
    parser.add_argument("new", help="path of the converted snapshot")
    args = parser.parse_args(argv)
    with open(args.old, "rb") as fh:
        data = fh.read()
    try:
        forecaster = migrate(data)
    except (LookupError, TypeError, ValueError, AnarxError) as exc:
        print(f"{args.old}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    snapshot_save(forecaster, args.new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
