"""Comparison classifiers: behavior, determinism and oracle agreement."""

import hashlib
import inspect
import pickle

import numpy as np
import pytest

from slidescreen.baselines import (
    CLASSIFIERS,
    CLASSIFIER_KINDS,
    KNN_NEIGHBOURS,
    AnnClassifier,
    KnnClassifier,
    LinearSvmClassifier,
    RandomForestClassifier,
    classifier_factory,
    run_comparison,
    write_comparison_csv,
)
from slidescreen import evaluation
from slidescreen.evaluation import LabeledExample, cross_validate, stratified_kfold
from slidescreen.features import LSRL, MCC, MPH, MTR, N_FEATURES
from slidescreen.ingest import MALIGNANT, NORMAL
from slidescreen.netcore import (
    BranchSpec,
    GraphSpec,
    NetClassifier,
    TrainConfig,
    init_network,
    train,
)
from slidescreen.seeding import derive_seed
from slidescreen.widedeep import HIDDEN_WIDTH

from oracles import knn_proba


def random_row(rng, shift=0.0):
    row = np.empty(N_FEATURES)
    row[MTR] = rng.random() + shift
    row[MPH] = rng.random(10) + shift
    row[LSRL] = rng.normal(), rng.normal()
    row[MCC] = rng.random(5)
    return row


def separable_dataset(rng, n_per_class=15, gap=2.0):
    """Class 1 shifted up by `gap` in mtr and histogram space."""
    rows, labels = [], []
    for _ in range(n_per_class):
        rows.append(random_row(rng))
        labels.append(NORMAL)
        rows.append(random_row(rng, shift=gap))
        labels.append(MALIGNANT)
    return np.array(rows), np.array(labels)


class TestKnn:
    def test_fit_memorizes_training_set(self):
        rng = np.random.default_rng(0)
        X, labels = separable_dataset(rng, n_per_class=5)
        clf = KnnClassifier().fit(X, labels)
        assert clf.X.shape == (10, 18)
        np.testing.assert_array_equal(clf.X, X)
        np.testing.assert_array_equal(clf.y, labels)

    def test_vote_fraction(self):
        # 4 malignant + 1 normal among the 5 nearest -> 0.8
        X = np.zeros((6, N_FEATURES))
        X[:, MTR] = np.array([[0.1, 0.11, 0.12, 0.13, 0.5, 0.9]]).T
        labels = [MALIGNANT, MALIGNANT, MALIGNANT, MALIGNANT, NORMAL, NORMAL]
        clf = KnnClassifier().fit(X, labels)
        assert clf.predict_proba(X[:1])[0] == 0.8

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        X, labels = separable_dataset(rng, n_per_class=20, gap=0.3)
        clf = KnnClassifier().fit(X, labels)
        for _ in range(100):
            q = random_row(rng, shift=float(rng.uniform(0, 0.3)))
            got = clf.predict_proba(q[None, :])[0]
            want = knn_proba(X, labels, q, k=KNN_NEIGHBOURS)
            assert got == want

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError, match="^KNN queried before fit$"):
            KnnClassifier().predict_proba([])

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            KnnClassifier().fit([], [])


class TestLinearSvm:
    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(3)
        X, labels = separable_dataset(rng)
        clf = LinearSvmClassifier().fit(X, labels, seed=4)
        preds = (clf.predict_proba(X) >= 0.5).astype(int)
        np.testing.assert_array_equal(preds, labels)

    def test_zero_margin_maps_to_half(self):
        rng = np.random.default_rng(4)
        X, labels = separable_dataset(rng, n_per_class=4)
        clf = LinearSvmClassifier().fit(X, labels, seed=4)
        clf.w[:] = 0.0
        clf.b = 0.0
        assert clf.predict_proba(X[:1])[0] == 0.5

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        X, labels = separable_dataset(rng)
        a = LinearSvmClassifier().fit(X, labels, seed=6)
        b = LinearSvmClassifier().fit(X, labels, seed=6)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.b == b.b

    def test_single_class_rejected(self):
        rng = np.random.default_rng(6)
        X = np.array([random_row(rng) for _ in range(4)])
        with pytest.raises(ValueError, match="^training requires examples of both classes$"):
            LinearSvmClassifier().fit(X, [MALIGNANT] * 4)


class TestRandomForest:
    def test_same_seed_identical_forest(self):
        rng = np.random.default_rng(7)
        X, labels = separable_dataset(rng, n_per_class=10)
        a = RandomForestClassifier().fit(X, labels, seed=8)
        b = RandomForestClassifier().fit(X, labels, seed=8)
        assert a.trees == b.trees  # recursive dataclass equality

    def test_unanimous_vote_is_one(self):
        rng = np.random.default_rng(8)
        X, labels = separable_dataset(rng, gap=3.0)
        clf = RandomForestClassifier().fit(X, labels, seed=9)
        deep_malignant = random_row(rng, shift=3.0)
        assert clf.predict_proba(deep_malignant[None, :])[0] == 1.0

    def test_tree_order_invariance(self):
        rng = np.random.default_rng(9)
        X, labels = separable_dataset(rng, gap=0.4)
        clf = RandomForestClassifier().fit(X, labels, seed=10)
        queries = np.array([random_row(rng) for _ in range(10)])
        before = clf.predict_proba(queries)
        perm = rng.permutation(len(clf.trees))
        clf.trees = [clf.trees[i] for i in perm]
        np.testing.assert_array_equal(before, clf.predict_proba(queries))

    def test_training_accuracy_on_separable_data(self):
        rng = np.random.default_rng(10)
        X, labels = separable_dataset(rng)
        clf = RandomForestClassifier().fit(X, labels, seed=11)
        preds = (clf.predict_proba(X) >= 0.5).astype(int)
        np.testing.assert_array_equal(preds, labels)

    def test_unfitted_and_single_class_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="^random forest queried before fit$"):
            RandomForestClassifier().predict_proba(random_row(rng)[None, :])
        with pytest.raises(ValueError, match="^training requires examples of both classes$"):
            RandomForestClassifier().fit(np.tile(random_row(rng), (3, 1)), [NORMAL] * 3)


class TestAnn:
    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(12)
        X, labels = separable_dataset(rng)
        clf = AnnClassifier(TrainConfig(epochs=150, learning_rate=1e-2)).fit(X, labels, seed=13)
        preds = (clf.predict_proba(X) >= 0.5).astype(int)
        np.testing.assert_array_equal(preds, labels)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="^training requires examples of both classes$"):
            AnnClassifier(TrainConfig(epochs=1)).fit(
                np.tile(random_row(rng), (3, 1)), [MALIGNANT] * 3)

    def test_classifier_adapter(self):
        rng = np.random.default_rng(14)
        X, labels = separable_dataset(rng, n_per_class=5)
        config = TrainConfig(epochs=4, learning_rate=1e-2, seed=99)
        clf = AnnClassifier(config)
        with pytest.raises(ValueError, match="^AnnClassifier queried before fit$"):
            clf.predict_proba(X)
        clf.fit(X, labels, seed=15)
        # the adapter is init_network at the fit seed then train, nothing more
        spec = GraphSpec(branches=(BranchSpec("features", N_FEATURES),),
                         head_hidden=(HIDDEN_WIDTH, HIDDEN_WIDTH))
        net, _ = train(init_network(spec, 15), {"features": X}, labels, config)
        got = b"".join(p.tobytes() for p in clf.net.parameter_arrays())
        assert got == b"".join(p.tobytes() for p in net.parameter_arrays())


def fold_model_digest(task):
    """sha256 of the parameters of one fold's network, trained in the
    process that parallel_map runs it in."""
    factory, X, labels, seed = task
    return hashlib.sha256(factory().fit(X, labels, seed).net.values.tobytes()).hexdigest()


class TestComparison:
    def make_examples(self, n_per_class=12):
        rng = np.random.default_rng(14)
        X, labels = separable_dataset(rng, n_per_class=n_per_class, gap=1.0)
        return [LabeledExample(f"s{i}", row, int(lab))
                for i, (row, lab) in enumerate(zip(X, labels))]

    def test_single_classifier_table(self, tmp_path):
        examples = self.make_examples()
        config = TrainConfig(epochs=5, learning_rate=1e-3)
        reports = run_comparison(examples, 3, seed=15, config=config,
                                 kinds=("knn",))
        assert list(reports) == ["knn"]
        path = tmp_path / "comparison.csv"
        write_comparison_csv(reports, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "model,accuracy,sensitivity,precision,f1,auc"
        assert len(lines) == 2
        assert lines[1].startswith("knn,")

    def test_identical_fold_assignment_across_classifiers(self):
        examples = self.make_examples()
        config = TrainConfig(epochs=5, learning_rate=1e-3)
        reports = run_comparison(examples, 3, seed=16, config=config,
                                 kinds=("knn", "svm", "rf"))
        assignments = {kind: rep.fold_slide_ids for kind, rep in reports.items()}
        assert assignments["knn"] == assignments["svm"] == assignments["rf"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_equal_separate_cross_validations(self, jobs):
        examples = self.make_examples()
        config = TrainConfig(epochs=5, learning_rate=1e-3)
        kinds = ("ann", "svm", "rf", "knn")
        reports = run_comparison(examples, 3, seed=17, config=config, kinds=kinds,
                                 jobs=jobs)
        assert list(reports) == list(kinds)
        for kind in kinds:
            assert reports[kind] == cross_validate(
                examples, classifier_factory(kind, config), 3, 17)

    def test_fold_models_same_bytes_serial_and_parallel(self):
        """Reports hold thresholded metrics only; the trained parameters
        themselves are the same whether a fold trains in this process or
        in a pool worker."""
        examples = self.make_examples()
        ids = np.array([e.slide_id for e in examples])
        X = np.array([e.features for e in examples])
        y = np.array([e.label for e in examples])
        folds = stratified_kfold([(e.slide_id, e.label) for e in examples], 3, 19).folds
        config = TrainConfig(epochs=5, learning_rate=1e-3)
        tasks = [(classifier_factory(kind, config), X[train], y[train],
                  derive_seed(19, f"fold-{i}"))
                 for kind in ("widedeep", "ann")
                 for i, train in enumerate(~np.isin(ids, fold) for fold in folds)]
        serial = evaluation.parallel_map(fold_model_digest, tasks, jobs=1)
        assert len(set(serial)) == len(tasks)
        assert evaluation.parallel_map(fold_model_digest, tasks, jobs=2) == serial

    def test_one_pool_for_every_model_and_fold(self, monkeypatch):
        calls = []

        def recording_map(fn, items, jobs=1):
            calls.append((len(items), jobs))
            return [fn(item) for item in items]

        monkeypatch.setattr(evaluation, "parallel_map", recording_map)
        run_comparison(self.make_examples(), 3, seed=18,
                       config=TrainConfig(epochs=2), kinds=("ann", "svm", "rf", "knn"),
                       jobs=2)
        assert calls == [(4 * 3, 2)]

    def test_cross_validate_signature_kept(self):
        assert list(inspect.signature(cross_validate).parameters) == \
            ["examples", "factory", "k", "seed", "jobs"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            classifier_factory("boosting", TrainConfig(epochs=1))

    def test_factory_covers_all_kinds(self):
        config = TrainConfig(epochs=1)
        assert CLASSIFIER_KINDS == ("widedeep", "ann", "svm", "rf", "knn")
        for kind in CLASSIFIER_KINDS:
            # the fold pool pickles every factory
            factory = pickle.loads(pickle.dumps(classifier_factory(kind, config)))
            clf = factory()
            assert type(clf) is CLASSIFIERS[kind]
            if isinstance(clf, NetClassifier):
                assert clf.config == config
