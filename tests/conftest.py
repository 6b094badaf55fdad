"""Helpers shared by the test modules."""

import json
from pathlib import Path

from magsense.config import resolved_hash


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
