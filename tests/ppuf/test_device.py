"""The Ppuf device and its network views."""

import gc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.blocks.edge import edge_currents_at_voltage, edge_saturation_scale, edge_voltage
from repro.circuit.ptm32 import CAPACITY_REFERENCE_VOLTAGE
from repro.circuit.table import EdgeTable
from repro.errors import ChallengeError, GraphError
from repro.ppuf import Challenge, CurrentComparator, Ppuf
from repro.ppuf import device as device_module
from repro.ppuf.engines import network_current
from repro.ppuf.io import ppuf_to_dict
from repro.circuit.variation import VariationSample
from repro.ppuf.crossbar import Crossbar


class TestCreation:
    def test_create_builds_two_networks(self, small_ppuf):
        assert small_ppuf.n == 10
        assert small_ppuf.network_a is not small_ppuf.network_b
        assert not np.array_equal(
            small_ppuf.network_a.sample.delta_vt,
            small_ppuf.network_b.sample.delta_vt,
        )

    def test_side_by_side_shares_systematic(self, small_ppuf):
        assert np.array_equal(
            small_ppuf.network_a.sample.systematic,
            small_ppuf.network_b.sample.systematic,
        )

    def test_sample_size_must_match_crossbar(self, tech, conditions):
        crossbar = Crossbar(n=5, l=2)
        good = VariationSample.nominal(crossbar.num_edges)
        bad = VariationSample.nominal(3)
        for sample_a, sample_b in ((bad, good), (good, bad)):
            with pytest.raises(GraphError):
                Ppuf(crossbar, sample_a, sample_b, tech, conditions)

    def test_determinism_per_seed(self, tech, conditions):
        a = Ppuf.create(6, 2, np.random.default_rng(7))
        b = Ppuf.create(6, 2, np.random.default_rng(7))
        assert np.array_equal(
            a.network_a.sample.delta_vt, b.network_a.sample.delta_vt
        )


class TestResponses:
    def test_response_is_binary_and_deterministic(self, small_ppuf, rng):
        challenge = small_ppuf.challenge_space().random(rng)
        first = small_ppuf.response(challenge)
        assert first in (0, 1)
        assert small_ppuf.response(challenge) == first

    def test_response_bits_vector(self, small_ppuf, rng):
        challenges = small_ppuf.challenge_space().random_batch(5, rng)
        bits = small_ppuf.response_bits(challenges)
        assert bits.shape == (5,)
        assert set(bits.tolist()) <= {0, 1}

    def test_currents_positive(self, small_ppuf, rng):
        challenge = small_ppuf.challenge_space().random(rng)
        current_a, current_b = small_ppuf.currents(challenge)
        assert current_a > 0
        assert current_b > 0

    def test_wrong_bit_count_rejected(self, small_ppuf):
        bad = Challenge(source=0, sink=1, bits=np.zeros(4, dtype=np.uint8))
        with pytest.raises(ChallengeError):
            small_ppuf.response(bad)

    def test_out_of_range_terminals_rejected(self, small_ppuf):
        bad = Challenge(
            source=0, sink=99,
            bits=np.zeros(small_ppuf.crossbar.num_control_bits, dtype=np.uint8),
        )
        with pytest.raises(ChallengeError):
            small_ppuf.response(bad)

    def test_unknown_engine_rejected(self, small_ppuf, rng):
        challenge = small_ppuf.challenge_space().random(rng)
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            small_ppuf.response(challenge, engine="spice")


class TestMaxflowEngine:
    def test_capacities_select_by_bit(self, small_ppuf, rng):
        network = small_ppuf.network_a
        edges = network.crossbar.num_edges
        all_zero = network.capacities(np.zeros(edges, dtype=np.uint8))
        all_one = network.capacities(np.ones(edges, dtype=np.uint8))
        mixed_bits = rng.integers(0, 2, edges).astype(np.uint8)
        mixed = network.capacities(mixed_bits)
        expected = np.where(mixed_bits == 1, all_one, all_zero)
        assert np.array_equal(mixed, expected)

    def test_capacity_matrix_layout(self, small_ppuf):
        network = small_ppuf.network_a
        edges = network.crossbar.num_edges
        matrix = network.capacity_matrix(np.ones(edges, dtype=np.uint8))
        assert matrix.shape == (10, 10)
        assert np.all(np.diag(matrix) == 0)
        assert np.all(matrix[~np.eye(10, dtype=bool)] > 0)

    def test_solver_choice_does_not_change_response(self, small_ppuf, rng):
        network = small_ppuf.network_a
        edges = network.crossbar.num_edges
        bits = rng.integers(0, 2, edges).astype(np.uint8)
        values = {
            algorithm: network.maxflow_current(bits, 0, 9, algorithm=algorithm)
            for algorithm in ("edmonds_karp", "dinic", "push_relabel")
        }
        reference = values["dinic"]
        for value in values.values():
            assert value == pytest.approx(reference, rel=1e-9)

    def test_wrong_edge_bit_count(self, small_ppuf):
        with pytest.raises(ChallengeError):
            small_ppuf.network_a.capacities(np.zeros(3, dtype=np.uint8))


class TestCircuitEngine:
    def test_circuit_agrees_with_maxflow_within_one_percent(self, small_ppuf, rng):
        """The Fig. 6 claim at unit-test scale."""
        challenge = small_ppuf.challenge_space().random(rng)
        simulated = small_ppuf.currents(challenge, engine="maxflow")
        executed = small_ppuf.currents(challenge, engine="circuit")
        for sim, exe in zip(simulated, executed):
            assert abs(sim - exe) / exe < 0.01

    def test_circuit_response_matches_maxflow_usually(self, small_ppuf, rng):
        agreements = 0
        challenges = small_ppuf.challenge_space().random_batch(6, rng)
        for challenge in challenges:
            if small_ppuf.response(challenge, engine="circuit") == small_ppuf.response(
                challenge, engine="maxflow"
            ):
                agreements += 1
        assert agreements >= 5


    def test_wrong_edge_bit_count_rejected_by_edge_table(self, small_ppuf):
        # Same contract as capacities(): a malformed bit vector must raise
        # instead of silently broadcasting into the row selection.
        with pytest.raises(ChallengeError):
            small_ppuf.network_a.edge_table(np.zeros(3, dtype=np.uint8))


class TestEnvironment:
    def test_corner_shares_silicon(self, small_ppuf):
        corner = small_ppuf.at_environment(supply_scale=1.1)
        assert corner.network_a.sample is small_ppuf.network_a.sample
        assert corner.network_a.conditions.v_supply == pytest.approx(2.2)

    def test_temperature_corner_shifts_tech(self, small_ppuf):
        corner = small_ppuf.at_environment(temperature_k=353.15)
        assert corner.network_a.tech.vt0 < small_ppuf.network_a.tech.vt0

    def test_responses_mostly_stable_across_corners(self, small_ppuf, rng):
        challenges = small_ppuf.challenge_space().random_batch(10, rng)
        nominal = small_ppuf.response_bits(challenges)
        hot = small_ppuf.at_environment(supply_scale=1.1, temperature_k=353.15)
        stressed = hot.response_bits(challenges)
        assert np.mean(nominal != stressed) <= 0.3


class TestComparator:
    def test_comparator_offset_can_bias_response(self, small_ppuf, rng):
        challenge = small_ppuf.challenge_space().random(rng)
        current_a, current_b = small_ppuf.currents(challenge)
        gap = current_b - current_a
        biased = replace(small_ppuf, comparator=CurrentComparator(offset=gap + 1e-9))
        assert biased.response(challenge) == 1


#: The conformance suite's devices: (n, l, fabrication seed).
CONFORMANCE_DEVICES = [(10, 3, 7010), (16, 4, 7016), (8, 2, 7100)]


class TestPublicDescription:
    def test_fields_are_what_a_save_file_holds(self, small_ppuf):
        names = [f.name for f in fields(Ppuf)]
        assert names == [
            "crossbar", "sample_a", "sample_b", "tech", "conditions", "comparator",
        ]
        saved = ppuf_to_dict(small_ppuf)
        assert {"n", "l", "technology", "conditions", "sample_a", "sample_b"} <= set(saved)
        assert "delta_vt" not in repr(small_ppuf)

    def test_replace_copy_derives_its_own_tables(self, small_ppuf):
        copy = replace(small_ppuf, comparator=CurrentComparator(offset=1e-9))
        assert copy.sample_a is small_ppuf.sample_a
        row = small_ppuf.network_a._capacities_for_bit(0)
        assert copy.network_a._capacities_for_bit(0) is not row
        assert np.array_equal(copy.cap0, small_ppuf.cap0)


class TestDerivedTables:
    @staticmethod
    def count_rows(monkeypatch):
        """Row count of every bisection and tabulation a device runs."""
        calls = {"bisect": [], "tabulate": []}
        real_bisect = device_module.edge_currents_at_voltage
        real_build = EdgeTable.build

        def bisect(voltage, bits, *args, **kwargs):
            calls["bisect"].append(len(bits))
            return real_bisect(voltage, bits, *args, **kwargs)

        def tabulate(v_of_i, i_scale, **kwargs):
            calls["tabulate"].append(len(i_scale))
            return real_build(v_of_i, i_scale, **kwargs)

        monkeypatch.setattr(device_module, "edge_currents_at_voltage", bisect)
        monkeypatch.setattr(EdgeTable, "build", tabulate)
        return calls

    def test_each_row_set_is_derived_once(self, monkeypatch):
        calls = self.count_rows(monkeypatch)
        ppuf = Ppuf.create(6, 2, np.random.default_rng(17))
        edges = ppuf.crossbar.num_edges
        challenge = ppuf.challenge_space().random(np.random.default_rng(18))
        ppuf.compile(include_circuit=True)
        ppuf.response(challenge, engine="maxflow")
        ppuf.response(challenge, engine="circuit")
        ppuf.network_b.capacities(np.ones(edges, dtype=np.uint8))
        # One bisection per network (both bits), one tabulation per
        # (network, bit), however many evaluations ask for them.
        assert calls == {"bisect": [2 * edges] * 2, "tabulate": [edges] * 4}

    def test_one_network_derives_only_its_rows(self, monkeypatch):
        calls = self.count_rows(monkeypatch)
        ppuf = Ppuf.create(6, 2, np.random.default_rng(19))
        edges = ppuf.crossbar.num_edges
        challenge = ppuf.challenge_space().random(np.random.default_rng(20))
        for engine in ("maxflow", "circuit", "maxflow", "circuit"):
            network_current(ppuf.network_a, challenge, engine)
        assert calls == {"bisect": [2 * edges], "tabulate": [edges] * 2}

    @pytest.mark.parametrize("compiled", [False, True], ids=["ppuf", "compiled"])
    def test_a_dropped_device_is_freed_at_once(self, compiled):
        device = Ppuf.create(6, 2, np.random.default_rng(21))
        if compiled:
            device = device.compile(include_circuit=False)
        network = device.network_a
        network.capacities(np.zeros(device.crossbar.num_edges, dtype=np.uint8))
        assert device.network("a") is network
        gone = weakref.ref(device)
        gc.disable()
        try:
            del device
            assert gone() is not None  # a view keeps its device
            del network
            assert gone() is None  # and nothing else does: no cycle
        finally:
            gc.enable()

    @pytest.mark.parametrize("n,l,seed", CONFORMANCE_DEVICES)
    def test_stacking_changes_no_bit(self, n, l, seed):
        ppuf = Ppuf.create(n, l, np.random.default_rng(seed))
        edges = ppuf.crossbar.num_edges
        tech, conditions = ppuf.tech, ppuf.conditions
        for row, sample in enumerate((ppuf.sample_a, ppuf.sample_b)):
            for bit in (0, 1):
                bits = np.full(edges, bit, dtype=np.uint8)
                capacities = edge_currents_at_voltage(
                    CAPACITY_REFERENCE_VOLTAGE, bits, sample, tech, conditions
                )
                assert np.array_equal((ppuf.cap0, ppuf.cap1)[bit][row], capacities)
                table = EdgeTable.build(
                    lambda current: edge_voltage(current, bits, sample, tech, conditions),
                    edge_saturation_scale(bits, sample, tech, conditions),
                    v_max=conditions.v_supply,
                )
                assert np.array_equal(ppuf.v_grid, table.v_grid)
                currents = (ppuf.currents0, ppuf.currents1)[bit]
                cocontent = (ppuf.cocontent0, ppuf.cocontent1)[bit]
                assert np.array_equal(currents[row], table.currents)
                assert np.array_equal(cocontent[row], table.cocontent)
