"""The smart-home simulator: spec → seeded, reproducible event traces.

This substrate replaces the thesis's physical deployments (the POSTECH
testbed, the ISLA houses, the WSU CASAS homes).  A :class:`HomeSpec`
describes one home — devices, floor plan, activity catalog, per-resident
routines, automations, daylight — and :class:`HomeSimulator` renders any
number of hours of its life as a :class:`~repro.model.trace.Trace`:

1. instantiate every resident's daily routine (seeded jitter/skips);
2. derive room occupancy and its sensor footprint (motion events, beacon
   RSSI, ultrasonic proximity);
3. apply activity-specific device footprints (appliance switches, heat,
   humidity, sound, weight ...);
4. evaluate automation rules into actuator events and their feedback
   effects on sensors;
5. render every numeric sensor's event-driven reading stream and collect
   everything into one time-sorted trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..model import DeviceKind, DeviceRegistry, SensorType, Trace
from .activities import ActivityCatalog, ActivityInstance
from .automation import AutomationRule, SimulationContext
from .daylight import DaylightModel
from .effects import EffectInterval, NumericSignalBuilder, binary_events
from .floorplan import FloorPlan
from .profiles import NumericProfile, profile_for
from .schedule import DailyRoutine, build_schedule, occupancy_intervals
from .spans import normalise


@dataclass
class HomeSpec:
    """A complete description of one simulated smart home."""

    name: str
    registry: DeviceRegistry
    floorplan: FloorPlan
    catalog: ActivityCatalog
    routines: List[DailyRoutine]
    automations: List[AutomationRule] = field(default_factory=list)
    daylight: Optional[DaylightModel] = None
    #: Light sensors that see outdoor light (get the daylight ambient level).
    ambient_light_sensor_ids: Tuple[str, ...] = ()
    ambient_lux_delta: float = 245.0
    #: Light sensors that follow the room's *manual* lamp use: the resident
    #: switches the lamp on while the room is occupied (the only light
    #: dynamics homes without smart bulbs, like hh102, exhibit).
    manual_lamp_light_sensor_ids: Tuple[str, ...] = ()
    manual_lamp_lux_delta: float = 145.0
    #: Occupancy footprint knobs.
    motion_period_seconds: float = 20.0
    beacon_delta: float = 40.0
    ultrasonic_delta: float = 120.0
    #: Probability that a numeric sensor misses one activity's effect
    #: entirely (a window was open, the pot was small, the sensor is at the
    #: far end of the room).  Zero by default: partial responses make
    #: "context minus one sensor" groups appear in training — which lets a
    #: plausibly-stuck sensor evade the correlation check, like the paper's
    #: real data — but every multi-sensor miss combination is another rare
    #: context that 300 hours of training cannot cover, so precision drops
    #: measurably at any non-zero setting.  Kept as an explicit ablation
    #: lever (see EXPERIMENTS.md, E8).
    response_miss_probability: float = 0.0
    #: Per-device overrides of the modality-default reporting profile.
    profile_overrides: Dict[str, NumericProfile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for device in self.registry:
            if device.room and device.room not in self.floorplan:
                raise ValueError(
                    f"device {device.device_id!r} placed in unknown room "
                    f"{device.room!r}"
                )
        for routine in self.routines:
            for name in routine.activity_names:
                if name not in self.catalog:
                    raise ValueError(f"routine references unknown activity {name!r}")

    def profile_of(self, device_id: str) -> NumericProfile:
        if device_id in self.profile_overrides:
            return self.profile_overrides[device_id]
        return profile_for(self.registry[device_id].sensor_type)

    def renamed(self, name: str) -> "HomeSpec":
        """A copy of this spec under a new name.

        Fleets instantiate the same house family many times over; the
        name is the only per-instance field (device ids stay per-home
        local — every home has its own registry and detector).
        """
        return replace(self, name=name)

    @property
    def num_residents(self) -> int:
        return len(self.routines)

    def activity_count(self) -> int:
        """Distinct activities exercised across all routines (Table 4.1's
        "Activities" column)."""
        names = set()
        for routine in self.routines:
            for name in routine.activity_names:
                spec = self.catalog[name]
                names.add(spec.canonical or spec.name)
        return len(names)


class HomeSimulator:
    """Renders a :class:`HomeSpec` into traces."""

    def __init__(self, spec: HomeSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------ #

    def simulate(self, horizon_seconds: float, seed: int) -> Trace:
        """One seeded run of the home over ``[0, horizon_seconds)``."""
        if not (math.isfinite(horizon_seconds) and horizon_seconds > 0):
            raise ValueError("horizon must be positive and finite")
        spec = self.spec
        rng = np.random.default_rng(seed)
        horizon = float(horizon_seconds)

        schedule = self._build_schedules(horizon, rng)
        presence = occupancy_intervals(schedule)
        moving = occupancy_intervals(
            inst for inst in schedule if not inst.spec.still
        )
        daylight = spec.daylight.spans(horizon, rng) if spec.daylight else []

        numeric_effects: Dict[str, List[EffectInterval]] = {}
        binary_times: Dict[str, List[np.ndarray]] = {}
        actuator_events: Dict[str, List[Tuple[float, float]]] = {}

        self._apply_ambient(daylight, numeric_effects)
        self._apply_occupancy(
            presence, moving, daylight, horizon, numeric_effects, binary_times
        )
        self._apply_activities(schedule, horizon, rng, numeric_effects, binary_times)
        self._apply_automations(
            horizon,
            schedule,
            presence,
            moving,
            daylight,
            numeric_effects,
            actuator_events,
        )

        return self._assemble(
            horizon, rng, numeric_effects, binary_times, actuator_events
        )

    # ------------------------------------------------------------------ #
    # Stage 1: schedules
    # ------------------------------------------------------------------ #

    def _build_schedules(
        self, horizon: float, rng: np.random.Generator
    ) -> List[ActivityInstance]:
        schedule: List[ActivityInstance] = []
        for resident, routine in enumerate(self.spec.routines):
            schedule.extend(
                build_schedule(routine, self.spec.catalog, horizon, rng, resident)
            )
        schedule.sort(key=lambda inst: inst.start)
        return schedule

    # ------------------------------------------------------------------ #
    # Stage 2: ambient daylight
    # ------------------------------------------------------------------ #

    def _apply_ambient(
        self,
        daylight: List[Tuple[float, float]],
        numeric_effects: Dict[str, List[EffectInterval]],
    ) -> None:
        spec = self.spec
        for sensor_id in spec.ambient_light_sensor_ids:
            for start, end in daylight:
                numeric_effects.setdefault(sensor_id, []).append(
                    EffectInterval(sensor_id, start, end, spec.ambient_lux_delta)
                )

    # ------------------------------------------------------------------ #
    # Stage 3: occupancy footprint
    # ------------------------------------------------------------------ #

    def _apply_occupancy(
        self,
        presence: Dict[str, List[Tuple[float, float]]],
        moving: Dict[str, List[Tuple[float, float]]],
        daylight: List[Tuple[float, float]],
        horizon: float,
        numeric_effects: Dict[str, List[EffectInterval]],
        binary_times: Dict[str, List[np.ndarray]],
    ) -> None:
        spec = self.spec
        manual_lamps = set(spec.manual_lamp_light_sensor_ids)
        for device in spec.registry:
            if not device.room:
                continue
            if (
                device.kind is DeviceKind.BINARY_SENSOR
                and device.sensor_type is SensorType.MOTION
            ):
                for start, end in moving.get(device.room, []):
                    times = np.arange(start, end, spec.motion_period_seconds)
                    if len(times):
                        binary_times.setdefault(device.device_id, []).append(times)
            elif device.kind is DeviceKind.NUMERIC_SENSOR:
                if device.sensor_type is SensorType.LOCATION:
                    spans, delta = presence.get(device.room, []), spec.beacon_delta
                elif device.sensor_type is SensorType.ULTRASONIC:
                    spans, delta = moving.get(device.room, []), spec.ultrasonic_delta
                elif device.device_id in manual_lamps:
                    spans = normalise(presence.get(device.room, []))
                    delta = spec.manual_lamp_lux_delta
                else:
                    continue
                for start, end in spans:
                    numeric_effects.setdefault(device.device_id, []).append(
                        EffectInterval(device.device_id, start, end, delta)
                    )

    # ------------------------------------------------------------------ #
    # Stage 4: activity footprints
    # ------------------------------------------------------------------ #

    def _apply_activities(
        self,
        schedule: List[ActivityInstance],
        horizon: float,
        rng: np.random.Generator,
        numeric_effects: Dict[str, List[EffectInterval]],
        binary_times: Dict[str, List[np.ndarray]],
    ) -> None:
        miss = self.spec.response_miss_probability
        for inst in schedule:
            start, end = inst.start, min(inst.end, horizon)
            for trigger in inst.spec.binary_triggers:
                times = binary_events(trigger, start, end, rng)
                # Event times are sorted: checking the first and the last
                # tells whether any falls outside [0, horizon).
                if len(times) and (times[0] < 0 or times[-1] >= horizon):
                    times = times[(times >= 0) & (times < horizon)]
                if len(times):
                    binary_times.setdefault(trigger.device_id, []).append(times)
            for effect in inst.spec.numeric_effects:
                if miss > 0.0 and rng.random() < miss:
                    continue
                if end > start:
                    numeric_effects.setdefault(effect.device_id, []).append(
                        EffectInterval(effect.device_id, start, end, effect.delta)
                    )

    # ------------------------------------------------------------------ #
    # Stage 5: automations
    # ------------------------------------------------------------------ #

    def _apply_automations(
        self,
        horizon: float,
        schedule: List[ActivityInstance],
        presence: Dict[str, List[Tuple[float, float]]],
        moving: Dict[str, List[Tuple[float, float]]],
        daylight: List[Tuple[float, float]],
        numeric_effects: Dict[str, List[EffectInterval]],
        actuator_events: Dict[str, List[Tuple[float, float]]],
    ) -> None:
        ctx = SimulationContext(
            horizon=horizon,
            schedule=schedule,
            occupancy=presence,
            daylight=daylight,
            numeric_effects=numeric_effects,
            moving_occupancy=moving,
        )
        for rule in self.spec.automations:
            if rule.actuator_id not in self.spec.registry:
                raise ValueError(f"rule targets unknown actuator {rule.actuator_id!r}")
            output = rule.evaluate(ctx)
            actuator_events.setdefault(rule.actuator_id, []).extend(output.events)
            for effect in output.effects:
                numeric_effects.setdefault(effect.device_id, []).append(effect)

    # ------------------------------------------------------------------ #
    # Stage 6: rendering
    # ------------------------------------------------------------------ #

    def _assemble(
        self,
        horizon: float,
        rng: np.random.Generator,
        numeric_effects: Dict[str, List[EffectInterval]],
        binary_times: Dict[str, List[np.ndarray]],
        actuator_events: Dict[str, List[Tuple[float, float]]],
    ) -> Trace:
        """Render every device's run and write the runs into one set of
        preallocated arrays, then sort them by time once.

        Runs go in numeric sensors' registry order, then binary sensors'
        first-trigger order, then actuators' rule order: the stable time
        sort breaks ties by this order.  Each source is dropped once it is
        copied, so the sources, the trace and the sort never all live at
        once.
        """
        registry = self.spec.registry
        # A run is (device index, event count, timestamps, values); a binary
        # run holds its list of time chunks and no values (each reads 1.0).
        runs: List[Tuple[int, int, object, Optional[np.ndarray]]] = []
        for device in registry.numeric_sensors():
            builder = NumericSignalBuilder(self.spec.profile_of(device.device_id))
            effects = numeric_effects.get(device.device_id, [])
            if effects:
                starts = np.maximum(0.0, [effect.start for effect in effects])
                ends = np.minimum(horizon, [effect.end for effect in effects])
                live = ends > starts
                deltas = np.array([effect.delta for effect in effects])
                builder.add_many(starts[live], ends[live], deltas[live])
            t, v = builder.render(horizon, rng)
            runs.append((registry.index_of(device.device_id), len(t), t, v))
        for device_id, chunks in binary_times.items():
            count = sum(len(chunk) for chunk in chunks)
            runs.append((registry.index_of(device_id), count, chunks, None))
        binary_times.clear()
        for device_id, events in actuator_events.items():
            t = np.array([e[0] for e in events])
            v = np.array([e[1] for e in events])
            keep = (t >= 0) & (t < horizon)
            runs.append((registry.index_of(device_id), int(keep.sum()), t[keep], v[keep]))

        n = sum(run[1] for run in runs)
        timestamps = np.empty(n, dtype=np.float64)
        device_indices = np.empty(n, dtype=np.int32)
        values = np.empty(n, dtype=np.float64)
        at = 0
        runs.reverse()  # pop() then hands out the runs in order
        while runs:
            index, count, times, vals = runs.pop()
            end = at + count
            if vals is None:
                np.concatenate(times, out=timestamps[at:end])
                values[at:end] = 1.0
            else:
                timestamps[at:end] = times
                values[at:end] = vals
            device_indices[at:end] = index
            at = end
            del times, vals

        order = np.argsort(timestamps, kind="stable")
        timestamps = timestamps[order]
        device_indices = device_indices[order]
        values = values[order]
        return Trace(registry, timestamps, device_indices, values, start=0.0, end=horizon)
