"""Helpers shared by the test modules."""

import json
import math
import tracemalloc
from pathlib import Path

from magsense.config import REMOVED_FIELDS, resolved_hash

# a value that earlier versions recorded, or could have, for each removed
# field that changed no output at any value
_ANY_RECORDED = {
    "chi_mc": 0.0,
    "t2e": 5e-6,
    "workers": 0,
    "drive_frequency": 2 * math.pi * 4.74e9,
    "delta": 2 * math.pi * 1e6,
}


def rewrite_manifest(artifact, edit) -> tuple[str, str]:
    """Edit an artifact's recorded config and sign the artifact again.

    ``edit`` receives the manifest's ``config`` mapping and changes it in
    place. The manifest hash is recomputed and replaces the old one in every
    CSV table, so the artifact's hash checks pass and only the edit is under
    test. Returns the old and the new hash.
    """
    path = Path(artifact) / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    old_hash = manifest["hash"]
    edit(manifest["config"])
    manifest["hash"] = resolved_hash(manifest["config"])
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for table in Path(artifact).glob("*.csv"):
        text = table.read_text(encoding="utf-8")
        table.write_text(text.replace(old_hash, manifest["hash"]), encoding="utf-8")
    return old_hash, manifest["hash"]


def removed_field_edits():
    """(label, edit) that records one removed field at a reproduced value.

    Each ``edit`` suits ``rewrite_manifest``; a pump field goes into every
    protocol's pump.
    """
    edits = []
    for block, table in sorted(REMOVED_FIELDS.items()):
        for key, value in sorted(table.items()):
            value = _ANY_RECORDED[key] if value is None else value

            def edit(config, block=block, key=key, value=value):
                if block == "pump":
                    for protocol in config["protocols"]:
                        protocol["pump"][key] = value
                else:
                    config[block][key] = value

            edits.append((f"{block}.{key}", edit))
    return edits


def traced_peak(call) -> int:
    """The peak bytes that tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
