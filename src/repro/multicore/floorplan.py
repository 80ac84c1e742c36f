"""The dual-core floorplan and its power budget.

The 16 mm x 16 mm die keeps the big L2 as its bottom band; the top band
carries two complete copies of the Figure 2 core separated by thin L2
columns::

    +--------------------------------------------------+
    | L2c | core 0 (6.2 x 6.2) | L2m | core 1 | L2c     |   6.2 mm
    +--------------------------------------------------+
    |                L2 (16 x 9.8)                      |   9.8 mm
    +--------------------------------------------------+

Core block names carry a ``#<core>`` suffix (``IntReg#0``, ``IntReg#1``);
the helpers here translate between base names and instances.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import FloorplanError
from repro.floorplan.alpha21364 import _BLOCK_GEOMETRY_MM, CORE_BLOCKS
from repro.floorplan.block import Block
from repro.floorplan.floorplan import Floorplan
from repro.power.budget import default_power_specs
from repro.power.dynamic import BlockPowerSpec
from repro.units import MM

CORE_INSTANCES = (0, 1)
"""Core indices on the dual-core die."""

_CORE_ORIGIN_X_MM = {0: 1.2, 1: 8.6}
_BAND_Y_MM = 9.8
_SINGLE_CORE_ORIGIN_MM = (4.9, 9.8)  # the core's origin in the base floorplan

_L2_BANKS_MM = (
    ("L2", 0.0, 0.0, 16.0, 9.8),
    ("L2_left", 0.0, 9.8, 1.2, 6.2),
    ("L2_mid", 7.4, 9.8, 1.2, 6.2),
    ("L2_right", 14.8, 9.8, 1.2, 6.2),
)


def core_block(base_name: str, core: int) -> str:
    """Instance name of ``base_name`` on core ``core``."""
    if core not in CORE_INSTANCES:
        raise FloorplanError(f"no core {core} on the dual-core die")
    if base_name not in CORE_BLOCKS:
        raise FloorplanError(f"{base_name!r} is not a per-core block")
    return f"{base_name}#{core}"


def core_of(block_name: str) -> int:
    """Core index of an instance name; raises for shared blocks."""
    if "#" not in block_name:
        raise FloorplanError(f"{block_name!r} is not a per-core block instance")
    base, _, suffix = block_name.partition("#")
    if base not in CORE_BLOCKS or not suffix.isdigit():
        raise FloorplanError(f"{block_name!r} is not a per-core block instance")
    core = int(suffix)
    if core not in CORE_INSTANCES:
        raise FloorplanError(f"no core {core} on the dual-core die")
    return core


def build_dual_core_floorplan() -> Floorplan:
    """Two Figure 2 cores plus L2 banks, tiling a 16 mm square die."""
    blocks: List[Block] = [
        Block(name=name, x=x * MM, y=y * MM, width=w * MM, height=h * MM)
        for name, x, y, w, h in _L2_BANKS_MM
    ]
    base_x, base_y = _SINGLE_CORE_ORIGIN_MM
    core_geometry = [
        (name, x, y, w, h)
        for name, x, y, w, h in _BLOCK_GEOMETRY_MM
        if name in CORE_BLOCKS
    ]
    for core in CORE_INSTANCES:
        dx = _CORE_ORIGIN_X_MM[core] - base_x
        dy = _BAND_Y_MM - base_y
        for name, x, y, w, h in core_geometry:
            blocks.append(
                Block(
                    name=core_block(name, core),
                    x=(x + dx) * MM,
                    y=(y + dy) * MM,
                    width=w * MM,
                    height=h * MM,
                )
            )
    return Floorplan(blocks, name="alpha-dual-core")


def dual_core_power_specs() -> Dict[str, BlockPowerSpec]:
    """Per-block specs for the dual-core die.

    Core blocks inherit the single-core budget; the L2 banks keep the
    single-core L2's power *density* scaled to each bank's area.
    """
    base = default_power_specs()
    specs: Dict[str, BlockPowerSpec] = {}

    # The base design's L2 density (bottom band, W/m^2).
    base_l2_density = base["L2"].peak_dynamic_w / (16.0 * MM * 9.8 * MM)
    for name, _x, _y, width, height in _L2_BANKS_MM:
        # The bank's area exactly as its floorplan Block computes it.
        peak = base_l2_density * ((width * MM) * (height * MM))
        specs[name] = BlockPowerSpec(
            name=name,
            peak_dynamic_w=peak,
            leakage_ref_w=0.15 * peak,
            clock_fraction=base["L2"].clock_fraction,
        )
    for core in CORE_INSTANCES:
        for base_name in CORE_BLOCKS:
            spec = base[base_name]
            name = core_block(base_name, core)
            specs[name] = BlockPowerSpec(
                name=name,
                peak_dynamic_w=spec.peak_dynamic_w,
                leakage_ref_w=spec.leakage_ref_w,
                clock_fraction=spec.clock_fraction,
            )
    return specs
