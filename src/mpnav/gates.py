"""Measurement admission gates.

Three checks run before any observation reaches the fusion filter: a
time-vs-signal-strength range consistency test that screens out non-LoS
energy, a single-bounce validation for reflected paths, and an odometer
motion constraint on candidate position fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import SPEED_OF_LIGHT, row_dot


@dataclass
class GateConfig:
    range_consistency_m: float = 10.0
    elevation_eps_rad: float = math.radians(0.5)
    residual_m: float = 3.0
    motion_margin_m: float = 2.0

    def __post_init__(self):
        for name in ("range_consistency_m", "elevation_eps_rad", "residual_m", "motion_margin_m"):
            if not getattr(self, name) >= 0:  # NaN fails too; inf admits everything
                raise ValueError(f"{name} must be >= 0")


def classify_los(rtt: float, rss: float, plm, cfg: GateConfig) -> bool:
    """True when the time-based range of a two-way travel time rtt and the
    RSS-based range of rss agree, i.e. the energy plausibly traveled the
    direct path.

    A reflected path is longer than the RSS model's direct-path reading by
    the bounce loss (converted through the path-loss exponent), so the two
    ranges split apart and the observation is rejected.
    """
    d_time = SPEED_OF_LIGHT * rtt / 2.0
    return abs(d_time - plm.distance_from_rss(rss)) <= cfg.range_consistency_m


def oori_check(aod_el, aoa_el, fix_residual_m, cfg: GateConfig):
    """Admit reflected observations as genuine single bounces; takes the
    arrays of one epoch's paths (or scalars) and returns (admit,
    elevation_ok) boolean arrays of their shape.

    Two conditions: (a) a vertical reflector preserves the vertical component
    of the propagation direction, so the departure and arrival elevations
    must be opposite, |sin(aod_el) + sin(aoa_el)| <= eps; and (b) the
    observation's solution locus must pass near the predicted position,
    fix_residual_m <= threshold. Higher-order bounces generically fail (b)
    even though vertical walls let them sneak past (a). A path with
    elevation_ok but not admit failed (b) only.
    """
    dz = np.sin(np.asarray(aod_el, dtype=float)) + np.sin(np.asarray(aoa_el, dtype=float))
    elevation_ok = ~(np.abs(dz) > cfg.elevation_eps_rad)
    return elevation_ok & (np.asarray(fix_residual_m) <= cfg.residual_m), elevation_ok


def motion_gate(candidate_p, prior_p, odo_dist_m: float, cfg: GateConfig):
    """Reject candidate positions farther from the prior than the odometer
    says the vehicle could have traveled (plus margin). Broadcasts over
    stacked candidates (n, 3), returning (n,) booleans."""
    d = np.asarray(candidate_p, dtype=float) - np.asarray(prior_p, dtype=float)
    step = np.sqrt(row_dot(d, d))
    return step <= odo_dist_m + cfg.motion_margin_m
