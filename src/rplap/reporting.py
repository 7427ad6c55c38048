"""Deterministic JSON and CSV writers for command-line reports.

Output contains no timestamps or environment data, so identical runs produce
byte-identical files.
"""

import csv
import dataclasses
import json

import numpy as np

__all__ = ["jsonable", "write_json", "write_csv"]


def jsonable(value):
    """Recursively convert numpy scalars/arrays and dataclasses to JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if value is None or isinstance(value, str):
        return value
    return str(value)


def write_json(path, payload):
    """Write a payload as pretty JSON, preserving key order."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(jsonable(payload), handle, indent=2)
        handle.write("\n")


def write_csv(path, rows):
    """Write dict rows as CSV; field order follows the first row."""
    rows = [jsonable(row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()) if rows else [])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
