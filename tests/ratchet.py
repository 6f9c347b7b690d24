"""The ratchet contract shared by the wrong-verdict audits.

An audit's wrong keys are stored as a JSON list.  ``check`` fails on a wrong
key that is not stored, and on a stored key that is no longer wrong, so a
change that mends a verdict removes its key.  ``prune`` rewrites the file
with the stored keys that are still wrong; it never adds one.
"""

import json
from pathlib import Path


def stored(path: Path) -> set[str]:
    return set(json.loads(path.read_text()))


def check(wrong: set[str], path: Path) -> None:
    kept = stored(path)
    assert not wrong - kept, f"new wrong verdicts: {sorted(wrong - kept)}"
    assert not kept - wrong, f"mended, remove from {path.name}: {sorted(kept - wrong)}"


def prune(wrong: set[str], path: Path) -> int:
    """Keep only the stored keys that are still wrong; return how many."""
    kept = sorted(stored(path) & wrong)
    path.write_text("[\n" + ",\n".join(json.dumps(k) for k in kept) + "\n]\n")
    return len(kept)
