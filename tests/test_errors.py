"""Tests for the one real-domain check: every entry point that takes a real
with a sign or finiteness rule rejects it with the same four messages,
naming the argument and the value."""

import math
import re

import pytest

from turnover.engine import RefinementInput, exclusion_by_volume
from turnover.errors import DomainError
from turnover.numerics import Tolerance
from turnover.rooms import CeilingFunction, PolarDisk, nice_height, nice_room_ratio
from turnover.simplices import (
    angle_from_edge,
    length_from_disk_radius,
    miyamoto_lower_bound,
    rho3,
)
from turnover.trig import TurnoverSignature, hexagon_side, lambert_leg_bound

SIG = TurnoverSignature(2, 4, 5)
FINITE = "must be finite, got inf"

# (id, call, argument name, bound, what inf does): the bound is "positive"
# (x > 0) or ">= 0"; inf either fails finiteness, meets a later error of
# its function, or passes (None).
CHECKS = [
    ("exclusion_by_volume", lambda x: exclusion_by_volume(x, SIG, True),
     "orbifold volume", "positive", FINITE),
    ("RefinementInput", lambda x: RefinementInput(SIG, 5, "disk", x),
     "refinement input", "positive", FINITE),
    ("Tolerance.abs_tol", lambda x: Tolerance(x, 1e-12), "abs_tol", "positive", FINITE),
    ("Tolerance.rel_tol", lambda x: Tolerance(1e-12, x), "rel_tol", ">= 0", FINITE),
    ("PolarDisk", PolarDisk, "disk radius", "positive", FINITE),
    ("CeilingFunction.constant", CeilingFunction.constant,
     "constant ceiling height", ">= 0", FINITE),
    ("nice_height.V", lambda x: nice_height(x, 1.0), "volume", ">= 0", FINITE),
    ("nice_height.A_F", lambda x: nice_height(1.0, x), "floor area", "positive", FINITE),
    ("nice_room_ratio", nice_room_ratio, "height", "positive", FINITE),
    ("angle_from_edge", angle_from_edge, "edge length", "positive", "rounds onto pi/3"),
    ("rho3", rho3, "half edge length", "positive", "rounds onto pi/3"),
    ("miyamoto_lower_bound", lambda x: miyamoto_lower_bound(x, 1.0),
     "boundary area", "positive", FINITE),
    ("length_from_disk_radius", length_from_disk_radius,
     "disk radius", "positive", FINITE),
    ("lambert_leg_bound", lambert_leg_bound, "leg-bound base length", "positive", None),
    ("hexagon_side.l", lambda x: hexagon_side(x, 1.0), "hexagon side", "positive", FINITE),
    ("hexagon_side.l_prime", lambda x: hexagon_side(1.0, x),
     "hexagon side", "positive", FINITE),
]
PARAMS = pytest.mark.parametrize(
    "call, what, bound, at_inf", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS]
)


def rejects(call, x, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call(x)


@PARAMS
def test_nan_is_named_not_a_number(call, what, bound, at_inf):
    rejects(call, math.nan, f"{what} is not a number (nan)")


@PARAMS
def test_value_below_the_bound_is_named(call, what, bound, at_inf):
    rejects(call, -1.0, f"{what} must be {bound}, got -1.0")
    rejects(call, -math.inf, f"{what} must be {bound}, got -inf")
    if bound == "positive":
        rejects(call, 0.0, f"{what} must be positive, got 0.0")
    else:
        call(0.0)


@PARAMS
def test_infinity(call, what, bound, at_inf):
    if at_inf is None:
        call(math.inf)
    elif at_inf == FINITE:
        rejects(call, math.inf, f"{what} {FINITE}")
    else:
        rejects(call, math.inf, at_inf)


def test_lambert_leg_bound_at_infinity_is_zero():
    assert lambert_leg_bound(math.inf) == 0.0
