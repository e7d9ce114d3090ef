"""In-memory spans around the benchmark's calls into the program's layers."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans (name, start, end, parent, run id, rows) in memory;
    ``write`` stores them once, as JSON lines."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rows: int = 0):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "rows": rows, "start": time.monotonic(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")
