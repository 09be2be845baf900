"""Exact toolkit for bipartite graphs embedded on an 8-mode boson sampler.

The pipeline: name a graph by a ten-digit binary code, test whether the
device's equal-squeezing constraint admits it, compute its exact photon-count
distribution, draw seeded samples with optional loss, and reduce samples or
theory to event/orbit feature vectors for graph-similarity analysis.
"""

__version__ = "0.1.0"

from .catalog import CatalogRecord, build_catalog, class_counts, write_catalog
from .embedding import (
    Embeddability,
    EmbeddingSpec,
    embeddability_check,
    enumerate_embeddable,
    make_embedding,
)
from .engine import (
    LossModel,
    ProbabilityTable,
    SampleMeta,
    SampleSet,
    apply_loss,
    build_table,
    ingest_samples,
    pattern_probability,
    permanent,
    sample,
    to_threshold,
    total_photon_distribution,
    write_samples,
)
from .errors import InternalError, NotEmbeddableError, SampleFormatError, ValidationError
from .features import (
    DeviationCurve,
    EventSpec,
    FeatureVector,
    fv_events_analytic,
    fv_events_from_samples,
    fv_orbits_analytic,
    fv_orbits_from_samples,
    match_loss,
    relative_deviation,
)
from .graphs import (
    CLASS_LABELS,
    OTHER,
    adjacency_for,
    build_adjacency,
    classify,
    connected_components,
    decode_code,
)

__all__ = [name for name in dir() if not name.startswith("_")]
