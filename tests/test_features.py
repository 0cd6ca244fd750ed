"""Tests for the feature-engineering layer (spec + all nine families)."""

import numpy as np
import pytest

from repro.errors import FeatureError, NotFittedError
from repro.features import ALL_CATEGORIES, CATEGORY_INFO, FeatureMatrix
from repro.features.second_order import SecondOrderSelector
from repro.features.topic_features import TopicFeatureExtractor
from repro.ml.metrics import roc_auc


class TestFeatureMatrix:
    def make(self):
        return FeatureMatrix(
            imsi=np.array([10, 20, 30]),
            names=["a", "b"],
            values=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        )

    def test_shape_accessors(self):
        fm = self.make()
        assert fm.n_rows == 3
        assert fm.n_features == 2

    def test_column(self):
        fm = self.make()
        assert fm.column("b").tolist() == [2.0, 4.0, 6.0]
        with pytest.raises(FeatureError):
            fm.column("nope")

    def test_select(self):
        fm = self.make().select(["b"])
        assert fm.names == ["b"]
        assert fm.values.shape == (3, 1)

    def test_hstack(self):
        fm = self.make()
        other = FeatureMatrix(fm.imsi, ["c"], np.ones((3, 1)))
        out = fm.hstack(other)
        assert out.names == ["a", "b", "c"]

    def test_hstack_rejects_mismatched_rows(self):
        fm = self.make()
        other = FeatureMatrix(np.array([1, 2, 3]), ["c"], np.ones((3, 1)))
        with pytest.raises(FeatureError):
            fm.hstack(other)

    def test_hstack_rejects_duplicate_names(self):
        fm = self.make()
        other = FeatureMatrix(fm.imsi, ["a"], np.ones((3, 1)))
        with pytest.raises(FeatureError):
            fm.hstack(other)

    def test_duplicate_names_rejected(self):
        with pytest.raises(FeatureError):
            FeatureMatrix(np.array([1]), ["x", "x"], np.ones((1, 2)))

    def test_shape_validation(self):
        with pytest.raises(FeatureError):
            FeatureMatrix(np.array([1, 2]), ["a"], np.ones((1, 1)))

    def test_registry(self):
        assert len(ALL_CATEGORIES) == 9
        assert set(CATEGORY_INFO) == set(ALL_CATEGORIES)


class TestCategoryBlocks:
    @pytest.mark.parametrize(
        "category,expected",
        [("F1", 73), ("F2", 9), ("F3", 25), ("F4", 2), ("F5", 2), ("F6", 2)],
    )
    def test_unsupervised_block_widths(self, small_builder, category, expected):
        block = small_builder.category(category, 4)
        assert block.n_features == expected
        assert block.n_rows == small_builder.world.population.size

    def test_f1_has_paper_features(self, small_builder):
        f1 = small_builder.category("F1", 4)
        for name in ("balance", "innet_dura", "voice_dur", "gprs_all_flux",
                     "total_charge", "call_10010_cnt"):
            assert name in f1.names

    def test_blocks_are_imsi_sorted(self, small_builder, small_world):
        f1 = small_builder.category("F1", 4)
        assert np.array_equal(f1.imsi, np.sort(small_world.month(4).imsi))

    def test_caching_returns_same_object(self, small_builder):
        a = small_builder.category("F2", 4)
        b = small_builder.category("F2", 4)
        assert a is b

    def test_unknown_category(self, small_builder):
        with pytest.raises(FeatureError):
            small_builder.category("F99", 4)

    def test_supervised_blocks_need_fit(self, small_world):
        from repro.features import WideTableBuilder

        fresh = WideTableBuilder(small_world)
        with pytest.raises(FeatureError):
            fresh.category("F7", 4)
        with pytest.raises(FeatureError):
            fresh.category("F9", 4)

    def test_graph_block_values(self, small_builder, small_world):
        f6 = small_builder.category("F6", 5)
        pagerank_col = f6.column("pagerank_cooccurrence")
        labelprop_col = f6.column("labelprop_cooccurrence")
        assert pagerank_col.sum() == pytest.approx(1.0, abs=1e-3)
        assert np.all((labelprop_col >= 0) & (labelprop_col <= 1))

    def test_labelprop_reflects_churner_neighbourhoods(self, small_builder, small_world):
        f6 = small_builder.category("F6", 5)
        data = small_world.month(5)
        lp = f6.column("labelprop_cooccurrence")
        # Higher propagated churn probability for actual next-month churners.
        el = data.eligible
        assert lp[el][data.churn_next[el]].mean() > lp[el][~data.churn_next[el]].mean()


class TestSupervisedBlocks:
    @pytest.fixture(scope="class")
    def fitted_builder(self, small_world):
        from repro.features import WideTableBuilder

        builder = WideTableBuilder(small_world)
        labels = {4: small_world.month(4).churn_next.astype(int)}
        builder.fit_extractors([4], labels)
        return builder

    def test_topic_blocks_width(self, fitted_builder):
        assert fitted_builder.category("F7", 5).n_features == 10
        assert fitted_builder.category("F8", 5).n_features == 10

    def test_topic_rows_are_distributions(self, fitted_builder):
        theta = fitted_builder.category("F8", 5).values
        assert np.allclose(theta.sum(axis=1), 1.0)

    def test_search_topics_carry_churn_signal(self, fitted_builder, small_world):
        f8 = fitted_builder.category("F8", 5)
        data = small_world.month(5)
        el = data.eligible
        y = data.churn_next[el].astype(int)
        aucs = [
            max(roc_auc(y, f8.values[el, k]), 1 - roc_auc(y, f8.values[el, k]))
            for k in range(10)
        ]
        assert max(aucs) > 0.55

    def test_second_order_width(self, fitted_builder):
        assert fitted_builder.category("F9", 5).n_features == 20

    def test_full_wide_table(self, fitted_builder):
        wide = fitted_builder.features(5, ALL_CATEGORIES)
        assert wide.n_features == 73 + 9 + 25 + 2 + 2 + 2 + 10 + 10 + 20

    def test_features_requires_categories(self, fitted_builder):
        with pytest.raises(FeatureError):
            fitted_builder.features(5, ())


class TestSecondOrderSelector:
    def test_transform_is_products_of_standardized_columns(self, rng):
        base = FeatureMatrix(
            imsi=np.arange(300),
            names=["u", "v", "w"],
            values=rng.normal(size=(300, 3)),
        )
        y = (base.values[:, 0] * base.values[:, 1] > 0).astype(int)
        selector = SecondOrderSelector(n_pairs=2, n_epochs=20).fit(base, y)
        out = selector.transform(base)
        assert out.n_features == 2
        # The planted pair should be selected.
        assert ("u", "v") in selector.selected_pairs or (
            "v", "u"
        ) in selector.selected_pairs

    def test_fit_checks_lengths(self, rng):
        base = FeatureMatrix(np.arange(5), ["a"], rng.normal(size=(5, 1)))
        with pytest.raises(FeatureError):
            SecondOrderSelector().fit(base, np.zeros(3))

    def test_transform_before_fit(self, rng):
        base = FeatureMatrix(np.arange(5), ["a"], rng.normal(size=(5, 1)))
        with pytest.raises(NotFittedError):
            SecondOrderSelector().transform(base)

    def test_transform_checks_names(self, rng):
        base = FeatureMatrix(np.arange(50), ["a", "b"], rng.normal(size=(50, 2)))
        y = (rng.random(50) < 0.5).astype(int)
        selector = SecondOrderSelector(n_pairs=1, n_epochs=2).fit(base, y)
        renamed = FeatureMatrix(base.imsi, ["x", "y"], base.values)
        with pytest.raises(FeatureError):
            selector.transform(renamed)


class TestTopicExtractor:
    def test_unknown_category(self):
        with pytest.raises(FeatureError):
            TopicFeatureExtractor("F1")

    def test_transform_before_fit(self, small_world):
        with pytest.raises(NotFittedError):
            TopicFeatureExtractor("F8").transform(small_world, 4)

    def test_vocabulary_pruning(self, small_world):
        extractor = TopicFeatureExtractor("F8", min_word_count=3)
        extractor.fit(small_world, [4])
        assert extractor._vocab is not None
        assert len(extractor._vocab) > 50
