"""Editing a saved model directory behind its checksums.

load_model refuses any file whose sha256 differs from manifest.json, so
a test that wants a later load check to see an edited file re-hashes the
manifest with it.
"""

import hashlib
import json
import os


def rehashed_edit(directory, name, edit):
    """Replace the model file `name` in `directory` with edit(its bytes)
    and record the new bytes' sha256 in manifest.json."""
    path = os.path.join(directory, name)
    with open(path, "rb") as fh:
        raw = edit(fh.read())
    with open(path, "wb") as fh:
        fh.write(raw)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest[name] = hashlib.sha256(raw).hexdigest()
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def json_edit(edit):
    """A bytes edit for rehashed_edit that applies `edit` to the parsed
    JSON of the file and writes back what it returns."""
    return lambda raw: json.dumps(edit(json.loads(raw))).encode("utf-8")
