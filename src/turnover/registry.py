"""The registry of cited orbifolds: tetrahedral and prism orbifolds with
their volumes and the turnovers known to be immersed or embedded in them.

``engine`` re-exports ``RegistryEntry``, ``registry`` and
``registry_json``; this module imports only ``trig``, so ``turnover
registry`` prints the rows without loading the verdict pipeline.
"""

from typing import NamedTuple

from .trig import TurnoverSignature

__all__ = ["RegistryEntry", "registry", "registry_json"]


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
