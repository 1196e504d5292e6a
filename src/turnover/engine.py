"""The boundary-exclusion pipeline: budgets, candidates, case scans,
refinements, volume exclusions, and the registry of cited orbifolds.

For an immersed turnover of signature ``sig``, cutting along the embedded
turnovers in its complement leaves a core orbifold N whose volume is below
H* Area(sig) (or Area(sig) when N is closed), with H* the positive solution
of x = coth x.  When the turnover group sits inside a reflection extension
the budgets halve, tracked by ``extension_index`` in {1, 2}.  The pipeline:

1. ``make_ledger``     -- the area/volume budgets for ``sig``, including
   the volume caps Area(sig) and H* Area(sig) (divided by the extension
   index) that the case scans and ``exclusion_by_volume`` compare against.
2. ``boundary_candidates`` -- every turnover type that fits on the core
   boundary: all three cone orders from an admissible set and area strictly
   below the two-sided budget (projection onto the boundary strictly
   decreases area, so equality is excluded).  The candidates come from one
   exact table per order set, cut by a bisect on the budget.
3. ``miyamoto_case_scan``  -- for each candidate boundary, the return-path
   cases of ``simplices.boundary_cases`` with their volume lower bounds
   rho3 * Area(boundary).  The engine's one per-boundary cache holds, for
   each case, its bound and two frozen records, one Excluded and one
   Survives, built once per boundary and shared by every ledger; a scan
   picks the Excluded record when the bound exceeds the ledger's upper
   bound.
4. ``order4_refinement`` / ``order5_refinement`` -- sharper per-case bounds
   from configuration-specific inputs (an exactly known embedded disk
   radius, or a perpendicular separation whose doubling bounds a closed
   path).  The inputs are supplied by the caller since their derivations do
   not generalize; ``known_refinements`` returns the stock inputs for the
   immersed (2,4,5) analysis, where they come straight from triangle sides.
   Both and ``analyze`` score a ``RefinementInput`` through one function.
5. ``exclusion_by_volume`` -- an orbifold of known volume cannot contain an
   immersed turnover whose budget it exceeds.
6. ``analyze``         -- the whole chain, producing an ``AnalysisReport``.

No step reads a tolerance: H* is the one constant ``constant_H()``, so a
verdict depends only on the signature, the extension index and the
refinement inputs.

Mirrored-triangle boundary pieces are not enumerated separately: each one
is doubly covered by a turnover, and they enter the piece count only
through the minimal boundary area pi/21.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .collars import refined_boundary_orders
from .errors import CheckedRecord, DomainError, require_finite, require_positive
from .numerics import constant_H
from .simplices import (
    ReturnPathCase,
    TruncatedSimplexSpec,
    boundary_cases,
    length_from_disk_radius,
)
from .trig import (
    TurnoverSignature,
    hyperbolic_signatures,
    lambert_leg_bound,
    require_hyperbolic,
    triangle_geometry,
    turnover_area,
)

__all__ = [
    "Verdict",
    "Conclusion",
    "BoundLedger",
    "make_ledger",
    "boundary_candidates",
    "CaseRecord",
    "miyamoto_case_scan",
    "order4_refinement",
    "order5_refinement",
    "exclusion_by_volume",
    "RefinementInput",
    "RefinementRecord",
    "AnalysisReport",
    "known_refinements",
    "analyze",
    "RegistryEntry",
    "registry",
    "registry_json",
]

# Minimal boundary piece: twice the (2,3,7) mirrored triangle, area pi/21.
MIN_BOUNDARY_PIECE_DEFECT = -TurnoverSignature(2, 3, 7).chi_fraction()


class Verdict(enum.Enum):
    EXCLUDED = "Excluded"
    SURVIVES = "Survives"


class Conclusion(enum.Enum):
    NO_EMBEDDED_TURNOVERS = "NoEmbeddedTurnovers"
    CANDIDATES_REMAIN = "CandidatesRemain"


class BoundLedger(NamedTuple):
    """Area/volume budgets for an immersed turnover of type ``sig``.

    ``two_sided_budget`` caps the total boundary area of the core,
    ``upper_bound_with_boundary`` its volume when the boundary is nonempty,
    ``upper_bound_no_boundary`` when it is empty; all divided by the
    extension index.  ``max_boundary_pieces`` counts how many pi/21 pieces
    fit under the budget (computed in exact rational arithmetic, since an
    exact integer ratio must not round down).
    """

    sig: TurnoverSignature
    extension_index: int
    area: float
    two_sided_budget: float
    upper_bound_with_boundary: float
    upper_bound_no_boundary: float
    max_boundary_pieces: int


def make_ledger(sig: TurnoverSignature, extension_index: int = 1) -> BoundLedger:
    require_hyperbolic(sig)
    if (not isinstance(extension_index, int) or isinstance(extension_index, bool)
            or extension_index not in (1, 2)):
        raise DomainError(f"extension index must be 1 or 2, got {extension_index!r}")
    area = turnover_area(sig)
    no_boundary = area / extension_index
    pieces = _budget_defect(sig, extension_index) / MIN_BOUNDARY_PIECE_DEFECT
    return BoundLedger(
        sig=sig,
        extension_index=extension_index,
        area=area,
        two_sided_budget=2.0 * no_boundary,
        upper_bound_with_boundary=constant_H() * no_boundary,
        upper_bound_no_boundary=no_boundary,
        max_boundary_pieces=math.floor(pieces),
    )


def _budget_defect(sig: TurnoverSignature, extension_index: int) -> Fraction:
    """The two-sided budget as an exact multiple of 2*pi."""
    return 2 * -sig.chi_fraction() / extension_index


def boundary_candidates(
    ledger: BoundLedger, orders: Iterable[int]
) -> list[tuple[TurnoverSignature, float]]:
    """Hyperbolic signatures over ``orders`` with area strictly below budget.

    ``orders`` may be any iterable of cone orders, such as the tuple from
    ``refined_boundary_orders`` (an empty one yields an empty list).  The
    area comparison is exact (rational angle defects), so signatures that
    exactly exhaust the budget are excluded, never admitted by a rounding
    accident.  Sorted by ascending area, ties by signature.
    The rows are a prefix of the order set's cached candidate table, cut by
    a bisect on the budget; the list is the caller's own.
    """
    scale, keys, rows = _candidate_table(*sorted(set(orders)))
    budget = _budget_defect(ledger.sig, ledger.extension_index)
    # A key is an integer, so key >= budget * scale exactly when key >= its ceiling.
    return list(rows[: bisect_left(keys, math.ceil(budget * scale))])


# The census at orders <= 12 meets 104 distinct order sets.
@lru_cache(maxsize=128, typed=True)
def _candidate_table(
    *orders: int,
) -> tuple[int, tuple[int, ...], tuple[tuple[TurnoverSignature, float], ...]]:
    """Every hyperbolic signature over ``orders`` as ``(sig, area)`` rows,
    sorted by exact defect -chi, ties by signature.  The defects are kept as
    the integer keys ``defect * scale``, with ``scale`` the lcm of the
    orders, and the area is ``turnover_area``'s 2 pi float(defect).  Typed,
    so an order ``2.0`` is not read as ``2`` and still reaches
    ``TurnoverSignature``, which rejects it before the lcm is taken."""
    sigs = list(hyperbolic_signatures(orders))
    scale = math.lcm(*orders)
    ranked = []
    for sig in sigs:
        defect = -sig.chi_fraction()
        ranked.append((defect.numerator * (scale // defect.denominator), sig.orders,
                       sig, 2.0 * math.pi * float(defect)))
    ranked.sort()
    keys = tuple(key for key, *_ in ranked)
    return scale, keys, tuple((sig, area) for *_, sig, area in ranked)


class CaseRecord(NamedTuple):
    """One scanned return-path case with its volume lower bound and verdict."""

    case: ReturnPathCase
    lower_bound: float
    verdict: Verdict

    def to_dict(self) -> dict:
        return {
            "boundary": list(self.case.boundary_sig.orders),
            "k": self.case.k,
            "closed": self.case.closed,
            "theta": self.case.theta,
            "lower_bound": self.lower_bound,
            "verdict": self.verdict.value,
        }


def _verdict(ledger: BoundLedger, lower_bound: float) -> Verdict:
    """Excluded when a volume lower bound exceeds the ledger's upper bound."""
    if lower_bound > ledger.upper_bound_with_boundary:
        return Verdict.EXCLUDED
    return Verdict.SURVIVES


def miyamoto_case_scan(
    ledger: BoundLedger, boundary: TurnoverSignature
) -> list[CaseRecord]:
    """The verdict of every case of ``simplices.boundary_cases(boundary)``
    against the ledger; the cases and bounds do not depend on it."""
    cap = ledger.upper_bound_with_boundary
    # The strict test of ``_verdict``, picking one of the shared records.
    return [
        excluded if bound > cap else survives
        for bound, excluded, survives in _case_records(boundary)
    ]


# The census at orders <= 12 meets 946 distinct boundaries.
@lru_cache(maxsize=4096, typed=True)
def _case_records(
    boundary: TurnoverSignature,
) -> tuple[tuple[float, CaseRecord, CaseRecord], ...]:
    """``(bound, Excluded record, Survives record)`` for each case of
    ``simplices.boundary_cases(boundary)``, built once per boundary.  The
    records are frozen, so every ledger's scan shares them.  Typed, because
    a signature equals the plain tuple of its orders: a tuple must not find
    a signature's entry, and reaches ``boundary_cases``, which rejects it."""
    return tuple(
        (bound, CaseRecord(case, bound, Verdict.EXCLUDED),
         CaseRecord(case, bound, Verdict.SURVIVES))
        for case, bound in boundary_cases(boundary)
    )


def order4_refinement(
    ledger: BoundLedger,
    boundary: TurnoverSignature,
    disk_radius: float,
) -> tuple[float, Verdict]:
    """Bound from an exactly known embedded disk around a boundary cone point.

    Two disjoint radius-``disk_radius`` disks force the return path length
    up through the hexagon law, then the usual density bound applies.
    """
    record = _refine(ledger, RefinementInput(boundary, 4, "disk", disk_radius))
    return record.lower_bound, record.verdict


def order5_refinement(
    ledger: BoundLedger,
    boundary: TurnoverSignature,
    separation: float,
) -> tuple[float, Verdict]:
    """Bound from a perpendicular separation: a closed path connecting two
    cone points through it is at least twice the separation."""
    record = _refine(ledger, RefinementInput(boundary, 5, "separation", separation))
    return record.lower_bound, record.verdict


def exclusion_by_volume(
    orbifold_volume: float,
    sig: TurnoverSignature,
    has_embedded_turnovers: bool,
) -> Verdict:
    """Can an orbifold of the given volume contain an immersed ``sig`` turnover?

    Without embedded turnovers the core is the whole orbifold and its volume
    is capped by Area(sig); otherwise the cap is H* Area(sig).  Excluded
    means the stated volume exceeds the cap, a contradiction.
    """
    require_finite(require_positive(orbifold_volume, "orbifold volume"), "orbifold volume")
    ledger = make_ledger(sig)
    cap = (ledger.upper_bound_with_boundary if has_embedded_turnovers
           else ledger.upper_bound_no_boundary)
    return Verdict.EXCLUDED if cap < orbifold_volume else Verdict.SURVIVES


# --- full pipeline -----------------------------------------------------------


class _RefinementFields(NamedTuple):
    boundary: TurnoverSignature
    k: int
    kind: str
    value: float
    label: str


class RefinementInput(CheckedRecord, _RefinementFields):
    """Caller-supplied geometric input for one refinement.

    ``kind`` is "disk" (an embedded disk radius around the order-``k`` cone
    point) or "separation" (a perpendicular separation to double).  ``k``
    must be a cone order of ``boundary``, or the input applies to no case.
    """

    __slots__ = ()

    def __new__(cls, boundary: TurnoverSignature, k: int, kind: str, value: float,
                label: str = "") -> RefinementInput:
        if not isinstance(boundary, TurnoverSignature):
            raise DomainError(f"refinement boundary {boundary!r} is not a TurnoverSignature")
        if k not in boundary.orders:
            raise DomainError(f"refinement k={k!r} is not a cone order of {boundary}")
        if kind not in ("disk", "separation"):
            raise DomainError(f"unknown refinement kind {kind!r}")
        require_finite(require_positive(value, "refinement input"), "refinement input")
        return super().__new__(cls, boundary, k, kind, value, label)


class RefinementRecord(NamedTuple):
    input: RefinementInput
    theta: float
    lower_bound: float
    verdict: Verdict

    def to_dict(self) -> dict:
        return {
            "boundary": list(self.input.boundary.orders),
            "k": self.input.k,
            "kind": self.input.kind,
            "input": self.input.value,
            "label": self.input.label,
            "theta": self.theta,
            "lower_bound": self.lower_bound,
            "verdict": self.verdict.value,
        }


def _refine(ledger: BoundLedger, ref: RefinementInput) -> RefinementRecord:
    """Score one refinement: the return-path length its input forces (the
    hexagon law for a disk radius, twice a separation) is the edge of the
    T_theta whose density bounds the volume."""
    length = length_from_disk_radius(ref.value) if ref.kind == "disk" else 2.0 * ref.value
    spec = TruncatedSimplexSpec.from_edge(length)
    bound = spec.rho3 * turnover_area(ref.boundary)
    return RefinementRecord(ref, spec.theta, bound, _verdict(ledger, bound))


def known_refinements(sig: TurnoverSignature) -> tuple[RefinementInput, ...]:
    """Stock refinement inputs justified for specific signatures.

    For an immersed (2,4,5) turnover whose boundary candidate is again a
    (2,4,5): the disk around the order-4 cone point reaches exactly the
    order-2 cone point (the short triangle side), and a closed path through
    the order-5 points is twice the quadrilateral leg bound of the long
    side.  Both values come from ``triangle_geometry``, not stored floats.
    No other signature has a worked-out configuration, so the default is
    empty.
    """
    if sig.orders == (2, 4, 5):
        geo = triangle_geometry(sig)
        return (
            RefinementInput(
                boundary=sig,
                k=4,
                kind="disk",
                value=geo.side_between(2, 4),
                label="order-4 cone disk",
            ),
            RefinementInput(
                boundary=sig,
                k=5,
                kind="separation",
                value=lambert_leg_bound(geo.side_between(4, 5)),
                label="order-5 axis separation",
            ),
        )
    return ()


class AnalysisReport(NamedTuple):
    """Everything the pipeline established for one immersed signature.

    ``admissible_orders`` is the ascending tuple from
    ``refined_boundary_orders``."""

    ledger: BoundLedger
    admissible_orders: tuple[int, ...]
    candidates: tuple[tuple[TurnoverSignature, float], ...]
    cases: tuple[CaseRecord, ...]
    refinements: tuple[RefinementRecord, ...]
    conclusion: Conclusion

    def to_dict(self) -> dict:
        ledger = self.ledger
        return {
            "signature": list(ledger.sig.orders),
            "extension_index": ledger.extension_index,
            "bounds": {
                "with_boundary": ledger.upper_bound_with_boundary,
                "no_boundary": ledger.upper_bound_no_boundary,
                "budget": ledger.two_sided_budget,
                "max_pieces": ledger.max_boundary_pieces,
            },
            "orders": list(self.admissible_orders),
            "candidates": [
                {"sig": list(sig.orders), "area": area}
                for sig, area in self.candidates
            ],
            "cases": [record.to_dict() for record in self.cases],
            "refinements": [record.to_dict() for record in self.refinements],
            "conclusion": self.conclusion.value,
        }


def analyze(
    sig: TurnoverSignature,
    extension_index: int = 1,
    refinements: Iterable[RefinementInput] | None = None,
) -> AnalysisReport:
    """Run the full exclusion pipeline for an immersed ``sig`` turnover.

    The report depends only on the arguments: the pipeline reads no
    tolerance, and H* is the one constant from ``constant_H``.  When
    ``refinements`` is None, the stock inputs from ``known_refinements``
    are applied; pass ``()`` for none.  The conclusion is
    ``NoEmbeddedTurnovers`` exactly when every scanned case of every
    candidate boundary ends Excluded, counting a surviving case as Excluded
    when a refinement for the same boundary and axis order excludes it.
    """
    if refinements is None:
        refinements = known_refinements(sig)
    ledger = make_ledger(sig, extension_index)
    orders = refined_boundary_orders(sig)
    candidates = tuple(boundary_candidates(ledger, orders))

    all_cases: list[CaseRecord] = []
    for candidate, _ in candidates:
        all_cases.extend(miyamoto_case_scan(ledger, candidate))

    refinement_records = [_refine(ledger, ref) for ref in refinements]

    excluded_by_refinement = {
        (rec.input.boundary, rec.input.k)
        for rec in refinement_records
        if rec.verdict is Verdict.EXCLUDED
    }

    def settled(record: CaseRecord) -> bool:
        if record.verdict is Verdict.EXCLUDED:
            return True
        return (record.case.boundary_sig, record.case.k) in excluded_by_refinement

    conclusion = (
        Conclusion.NO_EMBEDDED_TURNOVERS
        if all(settled(record) for record in all_cases)
        else Conclusion.CANDIDATES_REMAIN
    )
    return AnalysisReport(
        ledger=ledger,
        admissible_orders=orders,
        candidates=candidates,
        cases=tuple(all_cases),
        refinements=tuple(refinement_records),
        conclusion=conclusion,
    )


# --- registry of cited orbifolds ----------------------------------------------


class RegistryEntry(NamedTuple):
    """A cited orbifold with its volume and its known immersed turnovers.

    Volumes are stored constants carried over from the sources that compute
    them; this package never derives tetrahedron volumes.  The extension
    index records whether each cited turnover group sits inside a
    reflection extension (halving its budgets), and ``has_embedded``
    whether the orbifold is known to contain embedded turnovers (switching
    which budget applies).

    ``edge_orders`` lists a tetrahedron's six dihedral orders as
    (A, B, C, D, E, F): A, B, C on the edges at one vertex, and D, E, F on
    the edges opposite them, so the four vertex links are (A, B, C),
    (A, E, F), (B, D, F) and (C, D, E).
    """

    name: str
    edge_orders: tuple[int, ...] | None
    prism_orders: tuple[int | None, ...] | None
    volume: float | None
    volume_cited: bool
    known_immersed: tuple[TurnoverSignature, ...]
    known_embedded: tuple[TurnoverSignature, ...] = ()
    extension_index: int = 1
    has_embedded: bool = False

    @property
    def kind(self) -> str:
        return "tetrahedral" if self.edge_orders else "prism"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "edge_orders": list(self.edge_orders) if self.edge_orders else None,
            "prism_orders": list(self.prism_orders) if self.prism_orders else None,
            "volume": self.volume,
            "volume_cited": self.volume_cited,
            "known_immersed": [list(s.orders) for s in self.known_immersed],
            "known_embedded": [list(s.orders) for s in self.known_embedded],
            "extension_index": self.extension_index,
            "has_embedded": self.has_embedded,
        }


_REGISTRY: tuple[RegistryEntry, ...] = (
    RegistryEntry(
        name="Q3",
        edge_orders=(2, 4, 2, 3, 5, 3),
        prism_orders=None,
        volume=0.071770,
        volume_cited=True,
        known_immersed=(TurnoverSignature(2, 4, 5),),
        extension_index=2,
        has_embedded=False,
    ),
    RegistryEntry(
        name="Q10",
        edge_orders=(2, 4, 2, 3, 6, 3),
        prism_orders=None,
        volume=0.211446,
        volume_cited=True,
        known_immersed=(TurnoverSignature(2, 4, 6),),
        extension_index=2,
        has_embedded=False,
    ),
    RegistryEntry(
        name="O8",
        edge_orders=(2, 3, 4, 2, 3, 5),
        prism_orders=None,
        volume=0.717306,
        volume_cited=True,
        known_immersed=(TurnoverSignature(3, 4, 5), TurnoverSignature(4, 5, 5)),
        extension_index=1,
        has_embedded=False,
    ),
    RegistryEntry(
        name="O9",
        edge_orders=(2, 3, 5, 2, 3, 5),
        prism_orders=None,
        volume=1.004261,
        volume_cited=True,
        known_immersed=(TurnoverSignature(3, 5, 5), TurnoverSignature(5, 5, 5)),
        extension_index=1,
        has_embedded=False,
    ),
    RegistryEntry(
        name="Q(2,4,7)",
        edge_orders=None,
        prism_orders=(2, 4, 7),
        volume=0.325947,
        volume_cited=True,
        known_immersed=(TurnoverSignature(2, 4, 7),),
        known_embedded=(TurnoverSignature(2, 3, 7),),
        extension_index=2,
        has_embedded=True,
    ),
    RegistryEntry(
        name="Q(2,4,inf)",
        edge_orders=None,
        prism_orders=(2, 4, None),
        volume=0.501921,
        volume_cited=True,
        # The roof turnover has an ideal cone point, outside the finite
        # signature model; only the volume is carried.
        known_immersed=(),
        extension_index=2,
        has_embedded=True,
    ),
)


def registry() -> tuple[RegistryEntry, ...]:
    """The static registry of cited orbifolds."""
    return _REGISTRY


def registry_json() -> list[dict]:
    return [entry.to_dict() for entry in registry()]
