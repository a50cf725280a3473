"""Machine-readable run reports.

A report is a list of named checks with values, bounds, and pass flags,
plus the run's parameters and artifact hashes.  Reports serialize to JSON
two ways: the full form (with wall time) and the canonical form, which
drops volatile fields and sorts keys so that identical (command,
parameters, seed) runs produce bit-identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

REPORT_FORMAT_VERSION = 1


def jsonable(x):
    """Lossless JSON projection: exact rationals become 'num/den' strings."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return repr(x)


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    _t0: float = field(default_factory=time.monotonic, repr=False)

    def add_check(self, name, value, bound, passed, mode="exact", **extra):
        entry = {
            "name": name,
            "value": jsonable(value),
            "bound": jsonable(bound),
            "pass": bool(passed),
            "mode": mode,
        }
        for key, val in extra.items():
            entry[key] = jsonable(val)
        if mode == "sampled" and "seed" not in entry:
            raise ValueError(f"sampled check {name!r} must record its seed")
        self.checks.append(entry)
        return entry

    def add_artifact(self, name, path):
        self.artifacts[name] = sha256_file(path)

    def finish(self):
        self.wall_time_s = time.monotonic() - self._t0
        return self

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_pass else 1

    def body(self, volatile=True) -> dict:
        doc = {
            "format": "soficlab-report",
            "version": REPORT_FORMAT_VERSION,
            "command": self.command,
            "parameters": jsonable(self.parameters),
            "checks": self.checks,
            "artifacts": dict(sorted(self.artifacts.items())),
        }
        if volatile:
            doc["wall_time_s"] = self.wall_time_s
        return doc

    def to_json(self) -> str:
        return json.dumps(self.body(volatile=True), indent=2, sort_keys=True)

    def canonical_json(self) -> str:
        """Deterministic serialization: identical runs give identical bytes."""
        return json.dumps(self.body(volatile=False), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def summary_lines(self):
        for c in self.checks:
            status = "pass" if c["pass"] else "FAIL"
            yield f"[{status}] {c['name']}: value={c['value']} bound={c['bound']} ({c['mode']})"


def sha256_file(path) -> str:
    """The file's sha256, read through one reused 1 MiB buffer."""
    h = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()
