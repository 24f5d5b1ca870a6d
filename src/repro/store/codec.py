"""Row encoding for the plan-set store.

Translates between ``encode_plan_set`` documents (the JSON format of
:mod:`repro.core.serialize`) and the store's relational layout: the
document itself is kept verbatim as JSON text, while the pieces the
lookup queries touch — alpha/guarantee tags and the statistics feature
vector — are lifted into columns and a side table at write time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class StoreRecord:
    """One plan-set document plus the metadata the store indexes.

    Attributes:
        signature: Full query signature (exact-hit key).
        family: Structure-only family digest
            (:func:`repro.service.signature.family_digest`).
        scenario: Scenario name (denormalized for reporting).
        stats_digest: Digest of the volatile statistics
            (:func:`repro.service.signature.statistics_digest`).
        num_tables: Tables joined by the query.
        num_params: Optimization parameters.
        features: Statistics feature vector
            (:func:`repro.service.signature.signature_features`).
        document: The ``encode_plan_set`` document.
    """

    signature: str
    family: str
    scenario: str
    stats_digest: str
    num_tables: int
    num_params: int
    features: tuple[float, ...]
    document: dict


def encode_document(document: dict) -> str:
    """Compact canonical JSON text for the ``document`` column."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def decode_document(text: str) -> dict:
    """Inverse of :func:`encode_document`."""
    return json.loads(text)


def encode_features(features) -> str:
    """JSON text for the ``signatures.features`` column."""
    return json.dumps([float(v) for v in features])


def decode_features(text: str) -> tuple[float, ...]:
    """Inverse of :func:`encode_features`."""
    return tuple(float(v) for v in json.loads(text))
