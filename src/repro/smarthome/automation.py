"""Actuator automation rules.

The testbed's actuators "were programmed to react to the connected
sensor's values" (Ch. IV): Hue bulbs follow motion, WeMo switches follow
temperature/humidity, blinds follow daylight, the Echo is used during
listening activities.  The simulator reproduces those couplings: each rule
turns the simulation context into actuator on/off events plus (optionally)
feedback effects the actuator has on nearby sensors — which is exactly the
structure DICE's G2A and A2G matrices learn.

Rules fire with a small reaction delay so that the actuator activation
lands in the window *after* the sensor context that triggered it, matching
the paper's group→actuator transition semantics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


from .activities import ActivityInstance, NumericEffect
from .effects import EffectInterval
from .spans import Span, complement, intersect, normalise


@dataclass
class SimulationContext:
    """Everything a rule may react to (read-only)."""

    horizon: float
    schedule: List[ActivityInstance]
    occupancy: Dict[str, List[Span]]
    daylight: List[Span]
    #: Numeric effect intervals assembled so far, keyed by device id.
    numeric_effects: Dict[str, List[EffectInterval]]
    #: Occupancy excluding still presence (sleep, naps) — None falls back
    #: to ``occupancy``.
    moving_occupancy: Optional[Dict[str, List[Span]]] = None

    def night_spans(self) -> List[Span]:
        return complement(self.daylight, 0.0, self.horizon)

    def room_moving_occupancy(self, room: str) -> List[Span]:
        source = (
            self.moving_occupancy
            if self.moving_occupancy is not None
            else self.occupancy
        )
        return source.get(room, [])


@dataclass
class AutomationOutput:
    """What a rule produces: actuator events and sensor feedback."""

    #: ``(timestamp, value)`` actuator events; value > 0 is an activation.
    events: List[Tuple[float, float]] = field(default_factory=list)
    effects: List[EffectInterval] = field(default_factory=list)


def _spans_to_switching(
    spans: Sequence[Span], delay: float, horizon: float
) -> List[Tuple[float, float]]:
    """On at span start + delay, off at span end + delay."""
    events: List[Tuple[float, float]] = []
    for start, end in spans:
        on = start + delay
        off = end + delay
        if on >= horizon or off <= on:
            continue
        events.append((on, 1.0))
        if off < horizon:
            events.append((off, 0.0))
    return events


class AutomationRule(abc.ABC):
    """Base class: one actuator, one trigger condition."""

    def __init__(self, actuator_id: str, delay_seconds: float = 60.0) -> None:
        if delay_seconds < 0:
            raise ValueError("delay must be non-negative")
        self.actuator_id = actuator_id
        self.delay_seconds = delay_seconds

    @abc.abstractmethod
    def evaluate(self, ctx: SimulationContext) -> AutomationOutput:
        """Compute the actuator's behaviour over the whole horizon."""


class OccupancyLightRule(AutomationRule):
    """Hue-style bulb: on while its room is occupied (at night, if asked).

    While on, the bulb raises the room's light sensors by ``lux_delta``.
    The default delta makes base + delta a clean multiple of the light
    sensors' 10-lux resolution — a plateau that straddles a quantisation
    boundary would flicker between adjacent readings on measurement noise.
    """

    def __init__(
        self,
        actuator_id: str,
        room: str,
        light_sensor_ids: Sequence[str] = (),
        lux_delta: float = 175.0,
        night_only: bool = True,
        delay_seconds: float = 60.0,
    ) -> None:
        super().__init__(actuator_id, delay_seconds)
        self.room = room
        self.light_sensor_ids = tuple(light_sensor_ids)
        self.lux_delta = lux_delta
        self.night_only = night_only

    def evaluate(self, ctx: SimulationContext) -> AutomationOutput:
        # Lamps follow *moving* presence: a sleeping resident has switched
        # the light off, so the bulb (and its sensor footprint) is idle.
        spans = ctx.room_moving_occupancy(self.room)
        if self.night_only:
            spans = intersect(normalise(spans), ctx.night_spans())
        out = AutomationOutput(
            events=_spans_to_switching(spans, self.delay_seconds, ctx.horizon)
        )
        for start, end in spans:
            for sensor_id in self.light_sensor_ids:
                out.effects.append(
                    EffectInterval(
                        sensor_id,
                        min(start + self.delay_seconds, ctx.horizon),
                        min(end + self.delay_seconds, ctx.horizon),
                        self.lux_delta,
                    )
                )
        return out


class EffectSwitchRule(AutomationRule):
    """WeMo-style switch: on while a watched sensor is pushed above base.

    Models "the switch activated a fan/humidifier based on the readings of
    the connected temperature and humidity sensors": whenever the watched
    sensor has an active positive effect (e.g. cooking heat), the switch
    turns on; optional feedback effects model the fan/humidifier's own
    influence.
    """

    def __init__(
        self,
        actuator_id: str,
        watched_sensor_id: str,
        feedback: Sequence[NumericEffect] = (),
        delay_seconds: float = 60.0,
    ) -> None:
        super().__init__(actuator_id, delay_seconds)
        self.watched_sensor_id = watched_sensor_id
        self.feedback = tuple(feedback)

    def evaluate(self, ctx: SimulationContext) -> AutomationOutput:
        intervals = ctx.numeric_effects.get(self.watched_sensor_id, [])
        spans = normalise(
            (eff.start, eff.end) for eff in intervals if eff.delta > 0
        )
        out = AutomationOutput(
            events=_spans_to_switching(spans, self.delay_seconds, ctx.horizon)
        )
        for start, end in spans:
            for effect in self.feedback:
                out.effects.append(
                    EffectInterval(
                        effect.device_id,
                        min(start + self.delay_seconds, ctx.horizon),
                        min(end + self.delay_seconds, ctx.horizon),
                        effect.delta,
                    )
                )
        return out


class DaylightBlindRule(AutomationRule):
    """Smart blind: moves at every daylight transition.

    The thesis wired the blinds to a light sensor: up when the reading is
    low, down otherwise.  Each movement is an activation event; the blind
    reports completion (an off event) shortly after.
    """

    def __init__(
        self, actuator_id: str, movement_seconds: float = 90.0, delay_seconds: float = 120.0
    ) -> None:
        super().__init__(actuator_id, delay_seconds)
        self.movement_seconds = movement_seconds

    def evaluate(self, ctx: SimulationContext) -> AutomationOutput:
        events: List[Tuple[float, float]] = []
        for start, end in ctx.daylight:
            for transition in (start, end):
                on = transition + self.delay_seconds
                if on < ctx.horizon:
                    events.append((on, 1.0))
                    off = on + self.movement_seconds
                    if off < ctx.horizon:
                        events.append((off, 0.0))
        return AutomationOutput(events=events)


class ActivityActuatorRule(AutomationRule):
    """Actuator used during a specific activity (e.g. the smart speaker
    during listening to music), with optional sensor feedback (sound)."""

    def __init__(
        self,
        actuator_id: str,
        activity_name: str,
        feedback: Sequence[NumericEffect] = (),
        delay_seconds: float = 60.0,
    ) -> None:
        super().__init__(actuator_id, delay_seconds)
        self.activity_name = activity_name
        self.feedback = tuple(feedback)

    def evaluate(self, ctx: SimulationContext) -> AutomationOutput:
        spans = normalise(
            (inst.start, inst.end)
            for inst in ctx.schedule
            if inst.name == self.activity_name
        )
        out = AutomationOutput(
            events=_spans_to_switching(spans, self.delay_seconds, ctx.horizon)
        )
        for start, end in spans:
            for effect in self.feedback:
                out.effects.append(
                    EffectInterval(
                        effect.device_id,
                        min(start + self.delay_seconds, ctx.horizon),
                        min(end + self.delay_seconds, ctx.horizon),
                        effect.delta,
                    )
                )
        return out
