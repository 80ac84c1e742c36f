"""Construction of the thermal RC network from a floorplan and package.

The network has one node per floorplan block plus two package nodes
(spreader, sink).  It is represented by:

* ``conductance`` -- the symmetric Laplacian-plus-ground matrix L such that
  the heat equation reads ``C dT/dt = P + g_amb * T_amb - L T`` with T in
  degrees Celsius and P the injected power vector;
* ``capacitance`` -- the diagonal of the capacitance matrix (J/K);
* ``ambient_conductance`` -- per-node conductance to the fixed ambient
  (non-zero only at the sink node).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Mapping

import numpy as np

from repro.errors import ThermalModelError
from repro.floorplan.floorplan import Floorplan
from repro.thermal.package import ThermalPackage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.thermal.solver import OperatorBank

SPREADER_NODE = "__spreader__"
SINK_NODE = "__sink__"

SPREADER_PERIPHERY_NODES = (
    "__spreader_n__",
    "__spreader_s__",
    "__spreader_e__",
    "__spreader_w__",
)
SINK_PERIPHERY_NODES = (
    "__sink_n__",
    "__sink_s__",
    "__sink_e__",
    "__sink_w__",
)


@dataclass(frozen=True)
class ThermalNetwork:
    """A fully assembled thermal RC network.

    Attributes
    ----------
    node_names:
        All node names: floorplan blocks in floorplan order, then the
        spreader and sink nodes.
    conductance:
        (n, n) symmetric matrix L described in the module docstring.
    capacitance:
        (n,) vector of node capacitances in J/K.
    ambient_conductance:
        (n,) vector of conductances to ambient in W/K.
    ambient_c:
        Ambient temperature in degrees Celsius.

    The die blocks are nodes ``0..m-1`` and carry no ambient
    conductance, checked at construction: the engines keep block
    quantities as the prefix of node vectors (block temperatures are
    ``T[:m]``, block power is written into ``P[:m]``), and a node
    power vector plus the ambient source is, on the block prefix, the
    block power itself.
    """

    node_names: tuple
    conductance: np.ndarray
    capacitance: np.ndarray
    ambient_conductance: np.ndarray
    ambient_c: float

    def __post_init__(self) -> None:
        m = len(self.block_names)
        if self.node_names[:m] != self.block_names:
            raise ThermalModelError(
                "die blocks must be the first nodes of the network, "
                "before every package node"
            )
        grounded = np.flatnonzero(self.ambient_conductance[:m])
        if grounded.size:
            raise ThermalModelError(
                f"die block {self.node_names[grounded[0]]!r} has a "
                f"conductance to ambient; only package nodes may"
            )

    @property
    def size(self) -> int:
        """Number of nodes in the network."""
        return len(self.node_names)

    @cached_property
    def block_names(self) -> tuple:
        """Names of the die-block nodes (package nodes carry a ``__``
        prefix and are excluded)."""
        return tuple(
            name for name in self.node_names if not name.startswith("__")
        )

    @cached_property
    def _node_index(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    @cached_property
    def block_node_indices(self) -> np.ndarray:
        """Node indices of the die blocks, in :attr:`block_names` order:
        ``0..m-1``, by the layout invariant."""
        return np.arange(len(self.block_names), dtype=np.intp)

    @cached_property
    def conductance_inverse(self) -> np.ndarray:
        """Dense inverse of the conductance matrix, computed once.

        The network is small (tens of nodes) and well conditioned
        (Laplacian plus ambient ground), so the explicit inverse is
        accurate and lets the exponential stepper turn the steady-state
        solve of its update into a single matvec.
        """
        return np.linalg.inv(self.conductance)

    @cached_property
    def operator_bank(self) -> "OperatorBank":
        """The network's read-only transient operators, built once.

        Propagators, backward-Euler inverses, ``(dt, K)`` powers, the
        modal basis and the span-probe bases depend only on the network
        and a step length, so every solver over this network shares one
        :class:`~repro.thermal.solver.OperatorBank` (the way
        :attr:`conductance_inverse` is shared) instead of rebuilding
        them per run.
        """
        from repro.thermal.solver import OperatorBank

        return OperatorBank(self)

    def solve_steady(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``L x = rhs`` (one LAPACK ``gesv`` on the small dense
        system)."""
        solution = np.linalg.solve(self.conductance, rhs)
        if not np.all(np.isfinite(solution)):  # pragma: no cover - defensive
            raise ThermalModelError("steady-state solve produced non-finite values")
        return solution

    def index_of(self, name: str) -> int:
        """Row/column index of a node."""
        try:
            return self._node_index[name]
        except KeyError:
            raise ThermalModelError(f"no thermal node named {name!r}") from None

    def power_vector(self, block_powers: Mapping[str, float]) -> np.ndarray:
        """Assemble the (n,) injected-power vector from a per-block mapping.

        Every floorplan block must be present; package nodes dissipate no
        power.  Negative powers are rejected.
        """
        vector = np.zeros(self.size)
        blocks = set(self.block_names)
        for name, watts in block_powers.items():
            if name not in blocks:
                raise ThermalModelError(f"power given for unknown block {name!r}")
            if watts < 0.0:
                raise ThermalModelError(f"negative power for block {name!r}")
            vector[self.index_of(name)] = watts
        missing = blocks - set(block_powers)
        if missing:
            raise ThermalModelError(f"power missing for blocks: {sorted(missing)}")
        return vector

    def temperatures_as_mapping(self, temps: np.ndarray) -> Dict[str, float]:
        """Convert a temperature vector back to ``{node: celsius}``."""
        if temps.shape != (self.size,):
            raise ThermalModelError(
                f"temperature vector has shape {temps.shape}, expected ({self.size},)"
            )
        return {name: float(temps[i]) for i, name in enumerate(self.node_names)}


def build_thermal_network(
    floorplan: Floorplan, package: ThermalPackage
) -> ThermalNetwork:
    """Derive the RC network for ``floorplan`` under ``package``.

    Mirrors HotSpot's block-level model: per-block vertical paths to a lumped
    spreader, lateral silicon coupling between abutting blocks, spreader to
    sink conduction, and sink-to-ambient convection.
    """
    blocks = floorplan.blocks
    names: List[str] = [block.name for block in blocks] + [SPREADER_NODE, SINK_NODE]
    n = len(names)
    spreader = n - 2
    sink = n - 1

    conductance = np.zeros((n, n))
    capacitance = np.zeros(n)
    ambient = np.zeros(n)

    def couple(i: int, j: int, resistance: float) -> None:
        if resistance <= 0.0:
            raise ThermalModelError("coupling resistance must be > 0")
        g = 1.0 / resistance
        conductance[i, i] += g
        conductance[j, j] += g
        conductance[i, j] -= g
        conductance[j, i] -= g

    # Vertical paths: block -> spreader.
    for i, block in enumerate(blocks):
        couple(i, spreader, package.block_vertical_resistance(block.area))
        capacitance[i] = package.block_capacitance(block.area)

    # Lateral silicon coupling between abutting blocks.
    for pair in floorplan.adjacencies:
        i = floorplan.index_of(pair.block_a)
        j = floorplan.index_of(pair.block_b)
        couple(
            i,
            j,
            package.lateral_resistance(pair.center_distance, pair.shared_edge_length),
        )

    # Package path: spreader -> sink -> ambient.
    couple(spreader, sink, package.spreader_to_sink_resistance(floorplan.die_area))
    ambient[sink] = 1.0 / package.convection_resistance
    conductance[sink, sink] += ambient[sink]

    capacitance[spreader] = package.spreader_capacitance
    capacitance[sink] = package.sink_capacitance

    return ThermalNetwork(
        node_names=tuple(names),
        conductance=conductance,
        capacitance=capacitance,
        ambient_conductance=ambient,
        ambient_c=package.ambient_c,
    )


def build_detailed_thermal_network(
    floorplan: Floorplan, package: ThermalPackage
) -> ThermalNetwork:
    """The full HotSpot-style package model.

    Like :func:`build_thermal_network` but with the spreader and sink each
    split into a centre node (under the die) plus four peripheral
    trapezoids, as in HotSpot's validated configuration.  The centre
    couples laterally to the periphery, the peripheries couple vertically
    down the stack, and the sink's convection to ambient is shared between
    centre and periphery by footprint area.

    For the paper's experiments the block-level model is sufficient (the
    two agree within tenths of a kelvin at the hotspot -- see the tests);
    the detailed model exists for studies where spreading into the package
    periphery matters (small dies, asymmetric heat sources).
    """
    blocks = floorplan.blocks
    names: List[str] = (
        [block.name for block in blocks]
        + [SPREADER_NODE, SINK_NODE]
        + list(SPREADER_PERIPHERY_NODES)
        + list(SINK_PERIPHERY_NODES)
    )
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    spreader = index[SPREADER_NODE]
    sink = index[SINK_NODE]

    conductance = np.zeros((n, n))
    capacitance = np.zeros(n)
    ambient = np.zeros(n)

    def couple(i: int, j: int, resistance: float) -> None:
        if resistance <= 0.0:
            raise ThermalModelError("coupling resistance must be > 0")
        g = 1.0 / resistance
        conductance[i, i] += g
        conductance[j, j] += g
        conductance[i, j] -= g
        conductance[j, i] -= g

    # Die: identical to the block-level model.
    for i, block in enumerate(blocks):
        couple(i, spreader, package.block_vertical_resistance(block.area))
        capacitance[i] = package.block_capacitance(block.area)
    for pair in floorplan.adjacencies:
        couple(
            floorplan.index_of(pair.block_a),
            floorplan.index_of(pair.block_b),
            package.lateral_resistance(
                pair.center_distance, pair.shared_edge_length
            ),
        )

    copper = package.package_material
    die_area = floorplan.die_area
    die_side = die_area**0.5

    # Spreader: centre = die footprint; periphery = the rest in 4 parts.
    spreader_periphery_area = max(
        (package.spreader_area - die_area) / 4.0, 1e-12
    )
    # Lateral path centre -> each peripheral trapezoid: roughly a quarter
    # of the annulus width through the spreader cross-section.
    annulus = (package.spreader_side - die_side) / 2.0
    lateral_sp = copper.conduction_resistance(
        max(annulus, 1e-6),
        package.spreader_thickness * die_side,
    )
    for name in SPREADER_PERIPHERY_NODES:
        couple(spreader, index[name], lateral_sp)
        capacitance[index[name]] = copper.capacitance(
            spreader_periphery_area * package.spreader_thickness
        )

    # Sink: centre under the spreader, periphery in 4 parts.
    sink_periphery_area = max(
        (package.sink_area - package.spreader_area) / 4.0, 1e-12
    )
    sink_annulus = (package.sink_side - package.spreader_side) / 2.0
    lateral_sink = copper.conduction_resistance(
        max(sink_annulus, 1e-6),
        package.sink_thickness * package.spreader_side,
    )
    for name in SINK_PERIPHERY_NODES:
        couple(sink, index[name], lateral_sink)
        capacitance[index[name]] = copper.capacitance(
            sink_periphery_area * package.sink_thickness
        )

    # Vertical package path.
    couple(spreader, sink, package.spreader_to_sink_resistance(die_area))
    for sp_name, sink_name in zip(SPREADER_PERIPHERY_NODES, SINK_PERIPHERY_NODES):
        vertical = copper.conduction_resistance(
            package.spreader_thickness / 2.0 + package.sink_thickness / 2.0,
            spreader_periphery_area,
        )
        couple(index[sp_name], index[sink_name], vertical)

    # Convection shared by footprint area.
    total_conductance = 1.0 / package.convection_resistance
    centre_share = package.spreader_area / package.sink_area
    ambient[sink] = total_conductance * centre_share
    conductance[sink, sink] += ambient[sink]
    for name in SINK_PERIPHERY_NODES:
        i = index[name]
        ambient[i] = total_conductance * (1.0 - centre_share) / 4.0
        conductance[i, i] += ambient[i]

    capacitance[spreader] = copper.capacitance(die_area * package.spreader_thickness)
    capacitance[sink] = copper.capacitance(
        package.spreader_area * package.sink_thickness
    )

    return ThermalNetwork(
        node_names=tuple(names),
        conductance=conductance,
        capacitance=capacitance,
        ambient_conductance=ambient,
        ambient_c=package.ambient_c,
    )
