"""Catalog of candidate graphs: embeddability, class, rank, photon budget.

The records come from ``embedding.walk_codes``: one batched trace test over
the 1024 candidate codes, with each embeddable graph's class read off its
K_{a,b} block shape.  Reasons for the rejected codes are computed only when
they are listed (``include_all``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import graphs
from .embedding import MEAN_PHOTON_SINGLE, walk_codes


@dataclass(frozen=True)
class CatalogRecord:
    code: str
    embeddable: bool
    iso_class: str
    rank: int | None = None
    m: float | None = None                 # mean photon per mode
    singular_value: float | None = None    # common nonzero singular value
    reason: str | None = None              # why not embeddable


def build_catalog(include_all: bool = False) -> list[CatalogRecord]:
    """One record per code, ascending; embeddable-only unless ``include_all``."""
    records = []
    for code, emb, iso_class in walk_codes(include_all):
        records.append(CatalogRecord(
            code=code,
            embeddable=emb.embeddable,
            iso_class=iso_class,
            rank=emb.rank if emb.embeddable else None,
            m=emb.rank * MEAN_PHOTON_SINGLE if emb.embeddable else None,
            singular_value=emb.singular_values[0] if emb.embeddable else None,
            reason=emb.reason,
        ))
    return records


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
