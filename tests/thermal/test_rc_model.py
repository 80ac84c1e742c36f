"""RC network construction."""

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.floorplan import Block, Floorplan
from repro.thermal import ThermalPackage, build_thermal_network
from repro.thermal.rc_model import SINK_NODE, SPREADER_NODE, ThermalNetwork


@pytest.fixture(scope="module")
def network():
    fp = Floorplan(
        [Block("a", 0, 0, 1e-3, 1e-3), Block("b", 1e-3, 0, 1e-3, 1e-3)]
    )
    return build_thermal_network(fp, ThermalPackage())


class TestStructure:
    def test_node_ordering(self, network):
        assert network.node_names == ("a", "b", SPREADER_NODE, SINK_NODE)
        assert network.block_names == ("a", "b")
        assert network.size == 4

    def test_conductance_matrix_is_symmetric(self, network):
        assert np.allclose(network.conductance, network.conductance.T)

    def test_adjacent_blocks_are_coupled(self, network):
        i, j = network.index_of("a"), network.index_of("b")
        assert network.conductance[i, j] < 0.0

    def test_blocks_couple_to_spreader_not_sink(self, network):
        i = network.index_of("a")
        assert network.conductance[i, network.index_of(SPREADER_NODE)] < 0.0
        assert network.conductance[i, network.index_of(SINK_NODE)] == 0.0

    def test_only_sink_touches_ambient(self, network):
        sink = network.index_of(SINK_NODE)
        assert network.ambient_conductance[sink] == pytest.approx(1.0)
        others = np.delete(network.ambient_conductance, sink)
        assert np.all(others == 0.0)

    def test_row_sums_zero_except_sink(self, network):
        # Internal Laplacian property: conductance leaves the network only
        # through the sink's ambient term.
        sums = network.conductance.sum(axis=1)
        sink = network.index_of(SINK_NODE)
        for i, total in enumerate(sums):
            if i == sink:
                assert total == pytest.approx(network.ambient_conductance[sink])
            else:
                assert total == pytest.approx(0.0, abs=1e-9)

    def test_capacitances_positive(self, network):
        assert np.all(network.capacitance > 0.0)

    def test_index_of_unknown_raises(self, network):
        with pytest.raises(ThermalModelError):
            network.index_of("missing")


class TestBlockLayout:
    """Die blocks are the node prefix and carry no ambient conductance:
    the engines read block temperatures as ``T[:m]`` and write block
    power into ``P[:m]``."""

    @staticmethod
    def _rebuilt(network, order=None, ambient=None):
        order = list(range(network.size)) if order is None else order
        return ThermalNetwork(
            node_names=tuple(network.node_names[i] for i in order),
            conductance=network.conductance[np.ix_(order, order)],
            capacitance=network.capacitance[order],
            ambient_conductance=(
                network.ambient_conductance[order]
                if ambient is None
                else ambient
            ),
            ambient_c=network.ambient_c,
        )

    def test_built_networks_hold_it(self, network):
        assert np.array_equal(network.block_node_indices, [0, 1])
        assert self._rebuilt(network).block_names == ("a", "b")

    def test_package_node_before_a_block_raises(self, network):
        with pytest.raises(ThermalModelError, match="first nodes"):
            self._rebuilt(network, order=[0, 2, 1, 3])

    def test_grounded_block_raises(self, network):
        ambient = network.ambient_conductance.copy()
        ambient[1] = 0.5
        with pytest.raises(ThermalModelError, match="'b'"):
            self._rebuilt(network, ambient=ambient)


class TestPowerVector:
    def test_assembles_in_node_order(self, network):
        vec = network.power_vector({"a": 1.0, "b": 2.0})
        assert vec.tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_missing_block_raises(self, network):
        with pytest.raises(ThermalModelError) as err:
            network.power_vector({"a": 1.0})
        assert "missing" in str(err.value)

    def test_unknown_block_raises(self, network):
        with pytest.raises(ThermalModelError):
            network.power_vector({"a": 1.0, "b": 2.0, "zz": 3.0})

    def test_negative_power_raises(self, network):
        with pytest.raises(ThermalModelError):
            network.power_vector({"a": -1.0, "b": 2.0})


class TestTemperatureMapping:
    def test_round_trip(self, network):
        temps = np.array([80.0, 81.0, 70.0, 60.0])
        mapping = network.temperatures_as_mapping(temps)
        assert mapping["a"] == 80.0
        assert mapping[SINK_NODE] == 60.0

    def test_wrong_shape_raises(self, network):
        with pytest.raises(ThermalModelError):
            network.temperatures_as_mapping(np.zeros(3))


def test_disjoint_blocks_have_no_direct_coupling():
    fp = Floorplan(
        [Block("a", 0, 0, 1e-3, 1e-3), Block("b", 5e-3, 0, 1e-3, 1e-3)]
    )
    network = build_thermal_network(fp, ThermalPackage())
    assert network.conductance[0, 1] == 0.0
