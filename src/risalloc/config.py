"""Scenario parameters, the one check and JSON parser for settings, and
unit conversions.

Units: distances in meters, carrier_freq in GHz, bandwidth in Hz, tx_power
and noise_power in dBm, shadow_sigma in dB, densities per square kilometer.
dBm values are converted to linear watts once, at config load, through the
``tx_power_watts`` / ``noise_watts`` properties.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

SPEED_OF_LIGHT = 3.0e8  # free-space propagation speed, m/s
MAX_DIST_2D = 5000.0    # ground distance ceiling of the channel model's pathloss laws, m
ENV_HEIGHT = 1.0        # effective environment height of the pathloss breakpoint, m
# Ceiling on blockage_density * area_km2, the expected blockages per drop:
# is_blocked loops in Python over every rectangle on every link.
MAX_EXPECTED_BLOCKAGES = 1e6
# Ceiling on shadow_sigma, dB: a 10-sigma draw on every link (2000 dB over the
# two hops of the surface path) keeps every amplitude and |S|^2 finite and
# non-zero; at 200 dB such a draw overflows |S|^2.
MAX_SHADOW_SIGMA = 100.0


class ConfigError(ValueError):
    """Invalid or malformed scenario, solver, training or network settings."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def is_int(v) -> bool:
    """An integer; a bool is not a number."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A finite real number; a bool is not a number."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


# rules for check_value: (predicate, wording), the predicate seeing a value of the field's type
POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_HEIGHT = (lambda v: ENV_HEIGHT < v <= MAX_DIST_2D,
           f"in ({ENV_HEIGHT:g}, {MAX_DIST_2D:g}] m, above the environment height")
_SHADOW_SIGMA = (lambda v: 0 <= v <= MAX_SHADOW_SIGMA, f"in [0, {MAX_SHADOW_SIGMA:g}] dB")
_POINT = (lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_finite, v)),
          "three finite numbers")
_TYPES = {"int": (is_int, "an integer"), "float": (_is_finite, "a finite number"),
          "bool": (lambda v: isinstance(v, bool), "true or false")}


def check_value(name: str, value, kind: str, rule=None) -> None:
    """The one check of a setting: ``value`` must hold type ``kind`` (an
    ``"int"`` an integer, a ``"float"`` a finite number, a ``"bool"`` true or
    false; other kinds are not checked), then satisfy ``rule``, if any."""
    for ok, wording in filter(None, (_TYPES.get(kind), rule)):
        if not ok(value):
            raise ConfigError(f"{name} must be {wording}, got {value!r}")


def check_fields(settings, **rules) -> None:
    """Run by a settings dataclass's ``__post_init__``: every field against
    its annotated type and the rule given for it by name."""
    for f in fields(settings):
        check_value(f.name, getattr(settings, f.name), getattr(f.type, "__name__", f.type),
                    rules.get(f.name))


def parse_settings(cls, data, section: str, complete: bool = True):
    """The one way a JSON object becomes a settings object of type ``cls``.

    Unknown keys are rejected, and so are missing ones when ``complete``
    (every field required); otherwise absent fields keep their defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a JSON object")
    names = {f.name for f in fields(cls)}
    missing = names - set(data) if complete else set()
    for problem, keys in (("unknown", set(data) - names), ("missing", missing)):
        if keys:
            raise ConfigError(f"{problem} {section} fields: {', '.join(sorted(keys))}")
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """Deployment geometry, channel constants, and power budget for one cell.

    The transmitter sits at ``bs_position`` with an N-antenna planar panel,
    the reflecting surface at ``ris_position`` with ``ris_side`` x
    ``ris_side`` elements. Users drop uniformly over the
    ``area_side`` x ``area_side`` square with x, y >= 0, so everything stays
    on the same side of the transmitter and the surface. Every link the
    channel model synthesises must span at most MAX_DIST_2D on the ground,
    and every antenna height must lie in (ENV_HEIGHT, MAX_DIST_2D].
    """

    bs_position: tuple = (0.0, 0.0, 10.0)
    ris_position: tuple = (25.0, 25.0, 10.0)
    area_side: float = 100.0
    n_bs_antennas: int = 4
    ris_side: int = 20
    num_ues: int = 3
    ue_density: float = 150.0
    blockage_density: float = 10.0
    blockage_mean_length: float = 15.0
    blockage_mean_width: float = 15.0
    carrier_freq: float = 28.0
    bandwidth: float = 50e6
    tx_power: float = 35.0
    noise_power: float = -84.0
    shadow_sigma: float = 4.0
    ue_height: float = 1.5
    bs_height: float = 10.0

    def __post_init__(self):
        check_fields(self, bs_position=_POINT, ris_position=_POINT, area_side=POSITIVE,
                     n_bs_antennas=AT_LEAST_ONE, ris_side=AT_LEAST_ONE, num_ues=AT_LEAST_ONE,
                     ue_density=NON_NEGATIVE, blockage_density=NON_NEGATIVE,
                     blockage_mean_length=POSITIVE, blockage_mean_width=POSITIVE,
                     carrier_freq=POSITIVE, bandwidth=POSITIVE, shadow_sigma=_SHADOW_SIGMA,
                     ue_height=_HEIGHT, bs_height=_HEIGHT)
        # keep positions hashable and JSON-friendly
        object.__setattr__(self, "bs_position", tuple(float(v) for v in self.bs_position))
        object.__setattr__(self, "ris_position", tuple(float(v) for v in self.ris_position))
        if abs(self.bs_height - self.bs_position[2]) > 1e-9:
            raise ConfigError("bs_height must match the z coordinate of bs_position")
        if not _HEIGHT[0](self.ris_position[2]):
            raise ConfigError(f"the z coordinate of ris_position must be {_HEIGHT[1]}, "
                              f"got {self.ris_position[2]!r}")
        if self.ris_position == self.bs_position:
            raise ConfigError("ris_position must differ from bs_position")
        for name, derived in (("tx_power", "tx_power_watts"), ("noise_power", "noise_watts"),
                              ("area_side", "area_km2")):
            try:
                value = getattr(self, derived)
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} = {getattr(self, name)!r} gives {derived} = {value!r}, "
                                  "which must be a positive finite number")
        self._check_link_ranges()
        expected = self.blockage_density * self.area_km2
        if not expected <= MAX_EXPECTED_BLOCKAGES:
            raise ConfigError(f"blockage_density = {self.blockage_density!r} expects {expected!r} "
                              f"blockages per drop, over the {MAX_EXPECTED_BLOCKAGES:g} allowed")

    def _check_link_ranges(self):
        """The transmitter-to-surface hop, and every corner of the service
        square seen from the transmitter and from the surface, lie within
        MAX_DIST_2D on the ground; a user link then does too."""
        (bx, by, _), (rx, ry, _) = self.bs_position, self.ris_position
        hop = math.hypot(rx - bx, ry - by)
        if not hop <= MAX_DIST_2D:
            raise ConfigError(f"bs_position and ris_position are {hop!r} m apart on the ground, "
                              f"beyond the channel model's {MAX_DIST_2D:g} m")
        a = self.area_side
        for name, (x, y) in (("bs_position", (bx, by)), ("ris_position", (rx, ry))):
            far = max(math.hypot(cx - x, cy - y) for cx in (0.0, a) for cy in (0.0, a))
            if not far <= MAX_DIST_2D:
                raise ConfigError(f"area_side = {a!r} puts a corner of the service square {far!r} m "
                                  f"from {name} on the ground, beyond the channel model's "
                                  f"{MAX_DIST_2D:g} m")

    # ---- derived quantities ----

    @property
    def total_elements(self) -> int:
        """Number of surface elements, L^2."""
        return self.ris_side * self.ris_side

    @property
    def tx_power_watts(self) -> float:
        return dbm_to_watts(self.tx_power)

    @property
    def noise_watts(self) -> float:
        return dbm_to_watts(self.noise_power)

    @property
    def area_km2(self) -> float:
        return (self.area_side / 1000.0) ** 2

    # ---- JSON round-trip ----

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def desk_config() -> ScenarioConfig:
    """Small profile that runs interactively: 3 users, 4 antennas, 8x8 surface."""
    return ScenarioConfig(ris_side=8)


def full_scale_config() -> ScenarioConfig:
    """Full-scale profile (20x20 surface); heavy for exhaustive search."""
    return ScenarioConfig()
