"""E12 — quantitative version of Table 2.1: DICE versus baseline families.

The paper compares approaches qualitatively (usability / generality /
feasibility / promptness); here DICE and the five comparator backends
(``repro.core.comparators``) run through the exact same segment-pair
protocol, each via ``create_backend(...).process_batch``, so the table
becomes measured precision/recall/identification numbers.  A segment
counts as detected if any alert fired; the identified devices are the
union over its identification alerts.  Expected shape: the ablated
variants lose whole fault classes (correlation-only misses stuck-at,
markov-only is slow and noisy), majority voting only works where redundant
same-type sensors exist, and the AR baseline cannot see fail-stop faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

import numpy as np

from ... import telemetry
from ...core import create_backend
from ...datasets import load_dataset
from ...faults import make_segment_pairs
from ..metrics import DetectionCounts, IdentificationCounts
from .common import ProtocolSettings


#: E12's rows: DICE, then the Table 2.1 comparators.
DETECTORS = (
    "dice",
    "clean-lcs",
    "correlation-only",
    "majority-vote",
    "markov-only",
    "timeseries-ar",
)


@dataclass(frozen=True)
class ComparisonRow:
    detector: str
    dataset: str
    detection_precision: float
    detection_recall: float
    identification_recall: float


def run(
    dataset: str = "D_houseA",
    detectors: Optional[Sequence[str]] = None,
    settings: ProtocolSettings = ProtocolSettings(),
) -> List[ComparisonRow]:
    data = load_dataset(
        dataset, seed=settings.seed, hours=settings.scaled_hours(dataset)
    )
    rng = np.random.default_rng(settings.seed)
    training, pairs = make_segment_pairs(
        data.trace,
        rng,
        precompute_hours=settings.scaled_precompute(),
        segment_hours=settings.segment_hours,
        count=settings.pairs,
    )

    rows: List[ComparisonRow] = []
    for name in detectors or DETECTORS:
        backend = create_backend(
            name,
            data.trace.registry,
            settings.config,
            metrics=telemetry.NULL_REGISTRY,
        ).fit(training)
        detection = DetectionCounts()
        identification = IdentificationCounts()
        for pair in pairs:
            clean = backend.process_batch(pair.faultless)
            faulty = backend.process_batch(pair.faulty)
            if clean:
                detection.false_positives += 1
            else:
                detection.true_negatives += 1
            if faulty:
                detection.true_positives += 1
            else:
                detection.false_negatives += 1
            identification.actual += 1
            identified = _identified(faulty)
            identification.named += len(identified) + len(_identified(clean))
            if pair.fault.device_id in identified:
                identification.correct += 1
        rows.append(
            ComparisonRow(
                detector=name,
                dataset=dataset,
                detection_precision=detection.precision,
                detection_recall=detection.recall,
                identification_recall=identification.recall,
            )
        )
    return rows


def _identified(alerts) -> Set[str]:
    """The union of the devices a segment's identification alerts name."""
    return set().union(*(a.devices for a in alerts if a.kind == "identification"))
