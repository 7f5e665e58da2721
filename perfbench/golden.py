"""Golden fingerprints: the recorded oracle every op's output is checked
against, plus the per-run bookkeeping that turns a mismatch into a
failed op (stdlib only)."""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Optional

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden.json"


def fingerprint(payload) -> str:
    """sha256 of the canonical JSON form (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load(path: pathlib.Path = GOLDEN_PATH) -> Dict[str, Dict[str, str]]:
    """``{workload: {op key: sha256}}`` from a golden file."""
    return json.loads(path.read_text())["ops"]


def save(ops: Dict[str, Dict[str, str]], reason: str,
         path: pathlib.Path = GOLDEN_PATH) -> None:
    """Write new fingerprints, appending ``reason`` to the file's history."""
    if not reason.strip():
        raise ValueError("a golden update needs a reason")
    history = (json.loads(path.read_text()).get("history", [])
               if path.exists() else [])
    payload = {"history": history + [reason.strip()],
               "ops": {name: dict(sorted(table.items()))
                       for name, table in ops.items()}}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


class OpChecker:
    """Decides whether each op's fingerprint is acceptable.

    An op fails when its fingerprint differs from the golden one, when it
    has none but ``require_golden`` says every op must, or when it differs
    from the same op's fingerprint in an earlier pass.
    """

    def __init__(self, expected: Dict[str, str], require_golden: bool):
        self.expected = expected
        self.require_golden = require_golden
        self.seen: Dict[str, str] = {}

    def check(self, key: str, fp: str) -> Optional[str]:
        first = self.seen.setdefault(key, fp)
        if first != fp:
            return "output differs from an earlier pass"
        want = self.expected.get(key)
        if want is None:
            return ("no golden fingerprint recorded"
                    if self.require_golden else None)
        if want != fp:
            return "golden fingerprint mismatch"
        return None
