"""Deterministic JSON/CSV emission: sorted keys, 12-significant-digit floats.

Identical inputs must produce byte-identical files, so every float passes
through the same %.12e normalization before serialization.
"""

from __future__ import annotations

import json
from pathlib import Path


def fmt_float(x: float) -> str:
    return f"{float(x):.12e}"


def round12(x: float) -> float:
    """Collapse a float onto its 12-significant-digit representative."""
    return float(fmt_float(x))


def to_jsonable(obj):
    """Recursively normalize floats for stable dumps."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": round12(obj.real), "im": round12(obj.imag)}
    if isinstance(obj, float):
        return round12(obj)
    return obj


def dumps(obj) -> str:
    """Sorted, indented JSON; NaN and infinities raise ValueError, as JSON has neither."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [cell if isinstance(cell, str) else fmt_float(cell) for cell in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
