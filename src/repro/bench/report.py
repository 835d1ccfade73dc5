"""Rendering experiment output in the paper's units.

Tables render to aligned ASCII.  ``python -m repro.exp run`` writes each
figure's rendering and its JSON form under ``benchmarks/results/``, so
EXPERIMENTS.md can cite exact reproduced numbers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


def _jsonify(value: Any) -> Any:
    """Coerce a cell to a plain JSON-serializable Python scalar.

    Numpy scalars (the common case: metrics come out of numpy reductions)
    are converted via ``item()``; anything else non-primitive falls back
    to ``str`` so a table can always be persisted.
    """
    # exact types only: np.float64 subclasses float and would leak through
    if value is None or type(value) in (bool, int, float, str):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        value = item()
        if isinstance(value, (bool, int, float, str)):
            return value
    return str(value)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        if abs(value) >= 0.01:
            return f"{value:.3f}"
        return f"{value:.3e}"
    return str(value)


@dataclass
class Table:
    """One paper table/figure rendered as rows."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *row: Any) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table {self.title!r} has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        lines = [f"== {self.title} =="]
        lines.append(
            "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save(self, name: str, directory: str) -> str:
        """Write the rendering to ``<directory>/<name>.txt``; returns path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render() + "\n")
        return path

    # ------------------------------------------------------------------
    # machine-readable form (the result store persists tables this way)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "title": self.title,
            "headers": [str(h) for h in self.headers],
            "rows": [[_jsonify(c) for c in row] for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Table":
        table = cls(data["title"], list(data["headers"]))
        for row in data["rows"]:
            table.add(*row)
        for note in data.get("notes", []):
            table.note(note)
        return table

    def save_json(self, name: str, directory: str) -> str:
        """Write :meth:`to_dict` to ``<directory>/<name>.json``; returns path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        return path


@dataclass
class Series:
    """A time/parameter series (one figure line)."""

    name: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.x.append(x)
        self.y.append(y)

