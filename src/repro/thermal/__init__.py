"""HotSpot-style compact thermal model.

The model follows the methodology of Skadron et al.'s HotSpot (ISCA 2003):
an equivalent RC circuit is derived purely from the floorplan geometry and
package description.  Each block gets one die node with a vertical
resistance through the die, thermal interface material and heat spreader;
adjacent blocks are coupled by lateral resistances through the silicon; the
spreader and heat sink are lumped nodes; the sink couples to ambient through
a convection resistance (1.0 K/W for the paper's low-cost package).

Heat flow is solved with a dense symmetric conductance matrix: steady state
via a cached linear factorisation, transients via either the exact
exponential propagator (default) or backward Euler (regression anchor),
both reading their per-time-step operators from one LRU-bounded bank per
network.
"""

from repro.thermal.materials import COPPER, SILICON, Material
from repro.thermal.package import ThermalPackage, default_package
from repro.thermal.rc_model import (
    ThermalNetwork,
    build_detailed_thermal_network,
    build_thermal_network,
)
from repro.thermal.solver import (
    STEPPER_BACKWARD_EULER,
    STEPPER_EXPONENTIAL,
    ExponentialSolver,
    TransientSolver,
    make_transient_solver,
    steady_state,
)
from repro.thermal.hotspot import HotSpotModel

__all__ = [
    "Material",
    "SILICON",
    "COPPER",
    "ThermalPackage",
    "default_package",
    "ThermalNetwork",
    "build_thermal_network",
    "build_detailed_thermal_network",
    "TransientSolver",
    "ExponentialSolver",
    "make_transient_solver",
    "STEPPER_BACKWARD_EULER",
    "STEPPER_EXPONENTIAL",
    "steady_state",
    "HotSpotModel",
]
