"""Catalog of candidate graphs: embeddability, class, rank, photon budget.

``embedding.walk_codes`` builds the ``CatalogRecord``s in one batched trace
test over the 1024 candidate codes (the rejected codes' reasons only with
``include_all``); this module counts the classes and writes the file.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import graphs
from .embedding import CatalogRecord, walk_codes


def build_catalog(include_all: bool = False) -> list[CatalogRecord]:
    """One record per code, ascending; embeddable-only unless ``include_all``."""
    return walk_codes(include_all)


def class_counts(records: list[CatalogRecord]) -> dict[str, int]:
    """Embeddable-member count per class, in catalog display order."""
    counts = {label: 0 for label in graphs.CLASS_LABELS}
    for rec in records:
        if rec.embeddable:
            counts[rec.iso_class] += 1
    return counts


def write_catalog(records: list[CatalogRecord], path) -> Path:
    path = Path(path)
    payload = {
        "graphs": [vars(rec) for rec in records],
        "class_counts": class_counts(records),
        "total": len(records),
        "embeddable": sum(1 for r in records if r.embeddable),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
