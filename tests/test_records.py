"""Every record type of the package is an immutable ``NamedTuple``: equal
fields mean equal records with equal hashes, pickle and copy round-trip it,
and for the checking records ``_replace`` runs the constructor's checks."""

import copy
import math
import pickle

import pytest

from turnover import collars, engine, numerics, rooms, simplices, trig
from turnover import registry as registry_module
from turnover.collars import EllipticPair, supergroup_table
from turnover.engine import RefinementInput, analyze, make_ledger, miyamoto_case_scan, registry
from turnover.errors import DomainError
from turnover.numerics import Bracket, Tolerance
from turnover.rooms import CeilingFunction, PolarDisk, ProjectiveTriangle, RoomSpec
from turnover.simplices import ReturnPathCase, TruncatedSimplexSpec
from turnover.trig import TurnoverSignature, triangle_geometry

SIG = TurnoverSignature(2, 4, 5)


def _evaluate(r, theta):
    return (1.0, 0.0, 0.0)


# One instance of each record that only stores its fields.
PLAIN = {
    "TriangleGeometry": lambda: triangle_geometry(SIG),
    "SupergroupEntry": lambda: supergroup_table()[0],
    "TruncatedSimplexSpec": lambda: TruncatedSimplexSpec.from_angle(0.9),
    "ReturnPathCase": lambda: ReturnPathCase.build(SIG, 5, True),
    "BoundLedger": lambda: make_ledger(SIG, 2),
    "CaseRecord": lambda: miyamoto_case_scan(make_ledger(SIG), SIG)[0],
    "RefinementRecord": lambda: analyze(SIG).refinements[0],
    "AnalysisReport": lambda: analyze(SIG),
    "RegistryEntry": lambda: registry()[0],
    "CeilingFunction": lambda: CeilingFunction(_evaluate),
    "RoomSpec": lambda: RoomSpec(1.0, 2.0, 0.5, 1.5),
}

# For each checking record: an instance, a ``_replace`` that the
# constructor normalizes, the record it must equal (repr included), and a
# ``_replace`` that it rejects.
CHECKING = {
    "TurnoverSignature": (SIG, {"p": 9}, TurnoverSignature(4, 5, 9), {"r": 1}),
    "EllipticPair": (EllipticPair(2, 5), {"m": 7}, EllipticPair(7, 5), {"n": 1}),
    "Tolerance": (Tolerance(1e-10, 1e-8), {"abs_tol": 1e-9}, Tolerance(1e-9, 1e-8),
                  {"rel_tol": -1.0}),
    "Bracket": (Bracket(2, 1), {"lo": 3}, Bracket(2.0, 3.0), {"hi": math.inf}),
    "RefinementInput": (RefinementInput(SIG, 4, "disk", 0.5, "x"), {"k": 5},
                        RefinementInput(SIG, 5, "disk", 0.5, "x"), {"k": 7}),
    "PolarDisk": (PolarDisk(1.0), {"radius": 2}, PolarDisk(2), {"radius": 0.0}),
    "ProjectiveTriangle": (
        ProjectiveTriangle(((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))),
        {"vertices": [(0, 0), (0.5, 0), (0, -0.5)]},
        ProjectiveTriangle(((0.0, 0.0), (0.5, 0.0), (0.0, -0.5))),
        {"vertices": ((0, 0), (1, 0), (0, 0.5))},
    ),
}

MODULES = (collars, engine, numerics, registry_module, rooms, simplices, trig)


def _instance(name):
    return PLAIN[name]() if name in PLAIN else CHECKING[name][0]


def test_the_records_are_every_public_namedtuple():
    found = {
        name for module in MODULES for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple)
        and hasattr(value, "_fields") and not name.startswith("_")
    }
    assert found == {*PLAIN, *CHECKING} and len(found) == 18


@pytest.mark.parametrize("name", [*PLAIN, *CHECKING])
def test_record_is_an_immutable_value(name):
    record = _instance(name)
    assert type(record).__name__ == name and not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    twin = type(record)(*record)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        assert repr(clone) == repr(record)
    if name in CHECKING:
        _, change, expected, bad = CHECKING[name]
        replaced = record._replace(**change)
        assert type(replaced) is type(record) and replaced == expected
        assert repr(replaced) == repr(expected)
        with pytest.raises(DomainError):
            record._replace(**bad)
