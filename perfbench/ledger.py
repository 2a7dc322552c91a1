"""Cross-execution determinism check for the benchmark's per-run counts.

Every execution records the deterministic counts of each run it made
(rounds, slots, boundaries, rows scored, calendar pops, instance ops,
completed iterations, makespan) in a work directory inside the checkout,
keyed by a digest of the program and benchmark sources.  A later
execution of the same seed on the same sources must reproduce every count
it shares with the record; a changed program starts a fresh record.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict


def source_digest(root: Path) -> str:
    """Digest of every Python file under ``src/`` and ``perfbench/``."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Ledger:
    """The recorded counts of one (sources, workload, seed)."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int) -> None:
        self.path = work / "ledger" / source_digest(root) / f"{workload}-{seed}.json"
        self.records: Dict[str, Dict[str, int]] = (
            json.loads(self.path.read_text()) if self.path.exists() else {}
        )

    def reconcile(self, counts: Dict[str, Dict[str, int]]) -> Dict[str, str]:
        """Compare ``counts`` with the record; add what is new.

        Returns run label -> message for each run whose shared counts differ.
        """
        mismatches = {}
        for label, values in counts.items():
            known = self.records.setdefault(label, {})
            differing = {
                key: (known[key], value)
                for key, value in values.items()
                if key in known and known[key] != value
            }
            if differing:
                mismatches[label] = f"{label}: counts changed between executions {differing}"
            for key, value in values.items():
                known.setdefault(key, value)
        return mismatches

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.records, sort_keys=True))
        tmp.replace(self.path)
