"""Shared plumbing for the experiment modules (E1-E12).

Every experiment follows the Ch. V protocol; this module provides one
memoised entry point so that, e.g., the accuracy figure and the timing
figure computed in one session reuse the same generated dataset and
detector run.

``hours_scale`` shrinks every duration (dataset hours and the 300-hour
precomputation period) proportionally; the 6-hour segment length is kept —
it is a unit of the protocol, not of the dataset.  EXPERIMENTS.md records
the scale each reported number was produced at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ...core import DEFAULT_CONFIG, DiceConfig
from ...datasets import ALL_NAMES, LoadedDataset, dataset_info, load_dataset
from ...faults import FaultType
from ..runner import DatasetResult, EvaluationRunner

#: Default protocol constants (Ch. V).
PRECOMPUTE_HOURS = 300.0
SEGMENT_HOURS = 6.0
PAIRS = 100

_cache: Dict[Tuple, Tuple[LoadedDataset, DatasetResult]] = {}


@dataclass(frozen=True)
class ProtocolSettings:
    """One experiment run's knobs."""

    hours_scale: float = 1.0
    pairs: int = PAIRS
    seed: int = 0
    precompute_hours: float = PRECOMPUTE_HOURS
    segment_hours: float = SEGMENT_HOURS
    config: DiceConfig = DEFAULT_CONFIG

    def scaled_hours(self, name: str) -> float:
        return dataset_info(name).hours * self.hours_scale

    def scaled_precompute(self) -> float:
        return self.precompute_hours * self.hours_scale

    def runner(self) -> EvaluationRunner:
        return EvaluationRunner(
            config=self.config,
            precompute_hours=self.scaled_precompute(),
            segment_hours=self.segment_hours,
            pairs=self.pairs,
            seed=self.seed,
        )


def clear_cache() -> None:
    _cache.clear()


def run_protocol(
    name: str,
    settings: ProtocolSettings = ProtocolSettings(),
    fault_types: Optional[Sequence[FaultType]] = None,
    actuators_only: bool = False,
) -> Tuple[LoadedDataset, DatasetResult]:
    """Load (or reuse) dataset *name* and run the protocol on it."""
    key = (name, settings, tuple(fault_types or ()), actuators_only)
    if key in _cache:
        return _cache[key]
    data = load_dataset(name, seed=settings.seed, hours=settings.scaled_hours(name))
    devices = data.trace.registry.actuators() if actuators_only else None
    result = settings.runner().evaluate(
        name, data.trace, fault_types=fault_types, devices=devices
    )
    _cache[key] = (data, result)
    return data, result


def default_datasets(names: Optional[Sequence[str]] = None) -> Sequence[str]:
    return list(names) if names else list(ALL_NAMES)
