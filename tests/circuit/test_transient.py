"""Nonlinear transient simulation."""

import numpy as np
import pytest

from repro.circuit.table import EdgeTable
from repro.circuit.transient import simulate_turn_on
from repro.errors import GraphError


def ohmic_table(resistances, v_max=2.0):
    resistances = np.asarray(resistances, dtype=np.float64)

    def v_of_i(current_matrix):
        return current_matrix * resistances[:, None]

    return EdgeTable.build(
        v_of_i, v_max / resistances * 1.5, v_max=v_max, num_points=401
    )


class TestRCChargeUp:
    """source - R - node(C) - R - sink: an analytically solvable RC."""

    R = 1e6
    C = 1e-12

    def _simulate(self, duration, steps=400):
        table = ohmic_table([self.R, self.R])
        return simulate_turn_on(
            3,
            np.array([0, 1]),
            np.array([1, 2]),
            table,
            np.array([1e-18, self.C, 1e-18]),
            source=0,
            sink=2,
            v_supply=2.0,
            duration=duration,
            steps=steps,
            settle_ratio=1e-2,
        )

    def test_final_current_matches_dc(self):
        result = self._simulate(duration=20 * self.R * self.C / 2)
        assert result.final_current == pytest.approx(2.0 / (2 * self.R), rel=1e-3)

    def test_settling_time_matches_analytic_tau(self):
        # tau = C * (R/2) (two resistors in parallel from the node's view);
        # 1 % settling of the source current ~ tau * ln(100 / 2)...
        # assert the order instead of the exact constant: within [2, 8] tau.
        tau = self.C * self.R / 2
        result = self._simulate(duration=30 * tau, steps=600)
        assert result.settling_time is not None
        assert 1.0 * tau < result.settling_time < 8.0 * tau

    def test_current_decays_monotonically_after_the_step(self):
        # At t=0+ the node is at 0 V, so the source edge sees the full 2 V
        # and delivers 2/R; it then decays to the DC value 1/R.
        result = self._simulate(duration=10 * self.R * self.C)
        currents = result.source_currents[1:]  # drop the t=0 sample
        assert currents[0] > 1.5 * result.final_current
        assert np.all(np.diff(currents) <= 1e-12)

    def test_too_short_run_reports_unsettled(self):
        tau = self.C * self.R / 2
        result = self._simulate(duration=0.1 * tau, steps=20)
        assert result.settling_time is None


class TestValidation:
    def test_input_checks(self):
        table = ohmic_table([1.0])
        with pytest.raises(GraphError):
            simulate_turn_on(
                2, np.array([0]), np.array([1]), table, np.array([1e-12]),
                source=0, sink=1, v_supply=1.0, duration=1.0,
            )  # capacitance shape
        with pytest.raises(GraphError):
            simulate_turn_on(
                2, np.array([0]), np.array([1]), table, np.array([1e-12, 0.0]),
                source=0, sink=1, v_supply=1.0, duration=1.0,
            )  # nonpositive capacitance
        with pytest.raises(GraphError):
            simulate_turn_on(
                2, np.array([0]), np.array([1]), table, np.array([1e-12, 1e-12]),
                source=0, sink=0, v_supply=1.0, duration=1.0,
            )  # equal terminals
        with pytest.raises(GraphError):
            simulate_turn_on(
                2, np.array([0]), np.array([1]), table, np.array([1e-12, 1e-12]),
                source=0, sink=1, v_supply=1.0, duration=-1.0,
            )  # duration


class TestOnDeviceNetwork:
    def test_transient_settles_to_maxflow_value(self, small_ppuf):
        from repro.ppuf.delay import transient_settling_time

        edges = small_ppuf.crossbar.num_edges
        bits = np.ones(edges, dtype=np.uint8)
        settle = transient_settling_time(small_ppuf.network_a, bits, 0, 9)
        assert settle > 0

    def test_transient_final_current_matches_dc_solution(self, small_ppuf):
        from repro.circuit.transient import simulate_turn_on
        from repro.ppuf.delay import lin_mead_delay_bound, node_capacitances_for

        network = small_ppuf.network_a
        edges = network.crossbar.num_edges
        bits = np.zeros(edges, dtype=np.uint8)
        src, dst = network.crossbar.edge_endpoints()
        result = simulate_turn_on(
            network.crossbar.n,
            src,
            dst,
            network.edge_table(bits),
            node_capacitances_for(network),
            source=0,
            sink=9,
            v_supply=network.conditions.v_supply,
            duration=40 * lin_mead_delay_bound(network.crossbar.n),
            steps=200,
        )
        dc_current = network.circuit_current(bits, 0, 9)
        assert result.final_current == pytest.approx(dc_current, rel=2e-3)

    def test_tighter_band_settles_later(self, small_ppuf):
        from repro.ppuf.delay import transient_settling_time

        bits = np.ones(small_ppuf.crossbar.num_edges, dtype=np.uint8)
        loose = transient_settling_time(
            small_ppuf.network_a, bits, 0, 9, settle_ratio=5e-2
        )
        tight = transient_settling_time(
            small_ppuf.network_a, bits, 0, 9, settle_ratio=5e-3
        )
        assert tight >= loose
