"""Dataset registry: the ten Table 4.1 datasets behind one loader.

>>> from repro.datasets import load_dataset
>>> data = load_dataset("houseA", seed=7)
>>> data.trace.duration_hours
576.0

``hours`` can be overridden (e.g. scaled down for quick experiments); the
default is the Table 4.1 duration.  Loading is seeded and fully
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..model import Trace
from ..smarthome import HomeSimulator, HomeSpec
from . import casas, isla, testbed


@dataclass(frozen=True)
class DatasetInfo:
    """One row of Table 4.1."""

    name: str
    hours: float
    binary_sensors: int
    numeric_sensors: int
    actuators: int
    activities: int
    residents: int
    family: str  # "isla", "casas", or "testbed"
    builder: Callable[[], HomeSpec]


@dataclass
class LoadedDataset:
    """A generated dataset: its spec, trace and registry-level metadata."""

    info: DatasetInfo
    spec: HomeSpec
    trace: Trace
    seed: int

    @property
    def name(self) -> str:
        return self.info.name


def _info(
    name: str,
    hours: float,
    census: tuple,
    activities: int,
    residents: int,
    family: str,
    builder: Callable[[], HomeSpec],
) -> DatasetInfo:
    binary, numeric, actuators = census
    return DatasetInfo(
        name, hours, binary, numeric, actuators, activities, residents, family, builder
    )


#: Table 4.1, one entry per dataset.
DATASETS: Dict[str, DatasetInfo] = {
    info.name: info
    for info in [
        _info("houseA", 576, (14, 0, 0), 16, 1, "isla", isla.build_house_a),
        _info("houseB", 648, (27, 0, 0), 25, 1, "isla", isla.build_house_b),
        _info("houseC", 480, (23, 0, 0), 27, 1, "isla", isla.build_house_c),
        _info("twor", 1104, (68, 3, 0), 9, 2, "casas", casas.build_twor),
        _info("hh102", 1488, (33, 79, 0), 30, 1, "casas", casas.build_hh102),
        _info("D_houseA", 600, (6, 31, 8), 16, 1, "testbed", testbed.build_d_house_a),
        _info("D_houseB", 650, (6, 31, 8), 14, 1, "testbed", testbed.build_d_house_b),
        _info("D_houseC", 500, (6, 31, 8), 18, 1, "testbed", testbed.build_d_house_c),
        _info("D_twor", 1200, (6, 31, 8), 9, 2, "testbed", testbed.build_d_twor),
        _info("D_hh102", 1500, (6, 31, 8), 26, 1, "testbed", testbed.build_d_hh102),
    ]
}

#: The five publicly-available third-party datasets.
THIRD_PARTY_NAMES: List[str] = ["houseA", "houseB", "houseC", "twor", "hh102"]
#: The five POSTECH-testbed datasets.
TESTBED_NAMES: List[str] = ["D_houseA", "D_houseB", "D_houseC", "D_twor", "D_hh102"]
ALL_NAMES: List[str] = THIRD_PARTY_NAMES + TESTBED_NAMES


def dataset_info(name: str) -> DatasetInfo:
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(ALL_NAMES)}"
        ) from None


def build_spec(name: str) -> HomeSpec:
    """The :class:`HomeSpec` for a dataset (devices, routines, rules)."""
    return dataset_info(name).builder()


def load_dataset(
    name: str, seed: int = 0, hours: Optional[float] = None
) -> LoadedDataset:
    """Generate dataset *name* with the given seed.

    ``hours`` overrides the Table 4.1 duration (useful for scaled-down
    experiments; the per-experiment scale used by the benchmark harness is
    recorded in EXPERIMENTS.md).
    """
    info = dataset_info(name)
    spec = info.builder()
    duration = (hours if hours is not None else info.hours) * 3600.0
    trace = HomeSimulator(spec).simulate(duration, seed=seed)
    return LoadedDataset(info, spec, trace, seed)
