"""Unit tests for the customer population and social graphs."""

import numpy as np
import pytest

from repro.datagen.population import CustomerPopulation, N_TOWNS
from repro.datagen.social import SocialGraph, build_graphs, exposure
from repro.errors import SimulationError


@pytest.fixture()
def pop(rng) -> CustomerPopulation:
    return CustomerPopulation(500, rng)


class TestPopulation:
    def test_attributes_plausible(self, pop):
        assert np.all((pop.age >= 16) & (pop.age <= 80))
        assert set(np.unique(pop.gender)) <= {0, 1}
        assert pop.town_id.max() < N_TOWNS
        assert np.all(pop.credit_value >= 0)
        assert np.all(pop.voice_level > 0)

    def test_initial_tenure_spread(self, pop):
        assert pop.innet_months.min() >= 1
        assert pop.innet_months.max() > 24

    def test_imsi_unique_per_generation(self, pop):
        imsi_before = pop.imsi.copy()
        pop.rebirth(np.array([0, 1]))
        imsi_after = pop.imsi
        assert imsi_after[0] != imsi_before[0]
        assert imsi_after[2] == imsi_before[2]
        assert len(set(imsi_after.tolist())) == pop.size

    def test_slots_of_inverts_imsi(self, pop):
        pop.rebirth(np.array([3]))
        slots = pop.slots_of(pop.imsi)
        assert np.array_equal(slots, np.arange(pop.size))

    def test_rebirth_resets_tenure(self, pop):
        pop.age_one_month()
        pop.rebirth(np.array([5]))
        assert pop.innet_months[5] == 1

    def test_rebirth_resamples_attributes(self, rng):
        pop = CustomerPopulation(2000, rng)
        ages_before = pop.age.copy()
        slots = np.arange(1000)
        pop.rebirth(slots)
        assert (pop.age[slots] != ages_before[slots]).mean() > 0.5

    def test_rebirth_empty_noop(self, pop):
        before = pop.imsi.copy()
        pop.rebirth(np.array([], dtype=np.int64))
        assert np.array_equal(pop.imsi, before)

    def test_age_one_month(self, pop):
        before = pop.innet_months.copy()
        pop.age_one_month()
        assert np.array_equal(pop.innet_months, before + 1)

    def test_offer_class_range_and_mix(self, rng):
        pop = CustomerPopulation(3000, rng)
        classes = np.unique(pop.offer_class)
        assert set(classes.tolist()) == {0, 1, 2, 3, 4}
        refuse_rate = (pop.offer_class == 0).mean()
        assert 0.2 < refuse_rate < 0.5

    def test_offer_class_correlates_with_usage(self, rng):
        pop = CustomerPopulation(5000, rng)
        data_heavy = pop.data_level > np.quantile(pop.data_level, 0.9)
        flux_rate_heavy = (pop.offer_class[data_heavy] == 3).mean()
        flux_rate_all = (pop.offer_class == 3).mean()
        assert flux_rate_heavy > flux_rate_all

    def test_size_validated(self, rng):
        with pytest.raises(SimulationError):
            CustomerPopulation(0, rng)


class TestGraphs:
    @pytest.fixture(scope="class")
    def graphs(self):
        rng = np.random.default_rng(0)
        pop = CustomerPopulation(800, rng)
        return build_graphs(800, pop.town_id, rng)

    def test_three_graphs(self, graphs):
        gs, _ = graphs
        assert set(gs) == {"call", "message", "cooccurrence"}

    def test_edges_valid(self, graphs):
        gs, _ = graphs
        for g in gs.values():
            assert g.edges.min() >= 0
            assert g.edges.max() < g.n_nodes
            assert np.all(g.weights > 0)
            assert len(g.weights) == g.num_edges

    def test_message_graph_sparser_than_call(self, graphs):
        gs, _ = graphs
        assert gs["message"].num_edges < gs["call"].num_edges

    def test_location_clusters_cover_everyone(self, graphs):
        _, clusters = graphs
        assert len(clusters) == 800
        assert clusters.min() >= 0

    def test_no_self_loops(self, graphs):
        gs, _ = graphs
        for g in gs.values():
            assert np.all(g.edges[:, 0] != g.edges[:, 1])

    def test_tiny_world_rejected(self, rng):
        with pytest.raises(SimulationError):
            build_graphs(1, np.array([0]), rng)


class TestExposure:
    def test_exposure_definition(self):
        # Triangle 0-1-2; node 1 churned.
        g = SocialGraph(
            "g",
            np.array([[0, 1], [1, 2], [0, 2]]),
            np.array([1.0, 1.0, 1.0]),
            3,
        )
        churned = np.array([False, True, False])
        e = exposure(g, churned)
        assert e[0] == pytest.approx(0.5)
        assert e[1] == pytest.approx(0.0)
        assert e[2] == pytest.approx(0.5)

    def test_weights_matter(self):
        g = SocialGraph(
            "g", np.array([[0, 1], [0, 2]]), np.array([9.0, 1.0]), 3
        )
        e = exposure(g, np.array([False, True, False]))
        assert e[0] == pytest.approx(0.9)

    def test_isolated_nodes_zero(self):
        g = SocialGraph("g", np.array([[0, 1]]), np.array([1.0]), 4)
        e = exposure(g, np.array([True, False, False, False]))
        assert e[2] == 0.0 and e[3] == 0.0

    def test_length_checked(self):
        g = SocialGraph("g", np.array([[0, 1]]), np.array([1.0]), 2)
        with pytest.raises(SimulationError):
            exposure(g, np.array([True]))
