"""Tests for all HPO search algorithms."""

import numpy as np
import pytest

from repro.hpo.algorithms import (
    BayesianOptimization,
    GridSearch,
    HyperbandSearch,
    RandomSearch,
    TPESearch,
    get_algorithm,
)
from repro.hpo.config_file import paper_search_space
from repro.hpo.space import Integer, Real, SearchSpace
from repro.hpo.trial import Trial, TrialResult, TrialStatus


def tell_result(algo, config, accuracy):
    trial = Trial(len(algo.observed) + 1, dict(config))
    trial.result = TrialResult(val_accuracy=accuracy)
    trial.status = TrialStatus.COMPLETED
    algo.tell(trial)
    return trial


def continuous_space():
    return SearchSpace([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)])


def peak_objective(config):
    """Smooth unimodal objective peaking at (0.7, 0.3)."""
    return float(
        np.exp(-8 * ((config["x"] - 0.7) ** 2 + (config["y"] - 0.3) ** 2))
    )


def run_algo(algo, objective, batch=4):
    while not algo.is_exhausted:
        batch_configs = algo.ask(batch)
        if not batch_configs:
            break
        for c in batch_configs:
            tell_result(algo, c, objective(c))
    return algo


class TestGridSearch:
    def test_enumerates_entire_grid(self):
        algo = GridSearch(paper_search_space())
        configs = algo.ask()
        assert len(configs) == 27
        assert algo.is_exhausted

    def test_batched_ask(self):
        algo = GridSearch(paper_search_space())
        assert len(algo.ask(10)) == 10
        assert len(algo.ask(10)) == 10
        assert len(algo.ask(10)) == 7
        assert algo.ask(10) == []

    def test_rejects_continuous_space(self):
        with pytest.raises(ValueError, match="finite"):
            GridSearch(continuous_space())

    def test_total(self):
        assert GridSearch(paper_search_space()).total == 27


class TestRandomSearch:
    def test_budget_respected(self):
        algo = RandomSearch(paper_search_space(), n_trials=10, seed=0)
        assert len(algo.ask()) == 10
        assert algo.is_exhausted

    def test_deterministic(self):
        a = RandomSearch(paper_search_space(), n_trials=5, seed=3).ask()
        b = RandomSearch(paper_search_space(), n_trials=5, seed=3).ask()
        assert a == b

    def test_dedup(self):
        algo = RandomSearch(paper_search_space(), n_trials=20, seed=0)
        configs = algo.ask()
        keys = [tuple(sorted(c.items())) for c in configs]
        assert len(set(keys)) == 20

    def test_valid_configs(self):
        space = paper_search_space()
        for c in RandomSearch(space, n_trials=10, seed=1).ask():
            space.validate(c)

    def test_small_space_allows_duplicates_eventually(self):
        space = SearchSpace.from_dict({"a": [1, 2]})
        algo = RandomSearch(space, n_trials=5, seed=0)
        assert len(algo.ask()) == 5  # cannot dedup 5 from 2; must not hang

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            RandomSearch(paper_search_space(), n_trials=0)


class TestBayesianOptimization:
    def test_budget_and_exhaustion(self):
        algo = BayesianOptimization(continuous_space(), n_trials=8, seed=0)
        run_algo(algo, peak_objective)
        assert algo.is_exhausted
        assert len(algo.observed) == 8

    def test_beats_random_on_smooth_objective(self):
        bo = BayesianOptimization(
            continuous_space(), n_trials=25, n_init=5, seed=1
        )
        run_algo(bo, peak_objective, batch=1)
        rs = RandomSearch(continuous_space(), n_trials=25, seed=1)
        run_algo(rs, peak_objective, batch=1)
        assert bo.best_observed().val_accuracy >= rs.best_observed().val_accuracy - 0.05

    def test_batch_suggestions_diverse(self):
        algo = BayesianOptimization(
            continuous_space(), n_trials=20, n_init=4, seed=0
        )
        for c in algo.ask(4):
            tell_result(algo, c, peak_objective(c))
        batch = algo.ask(4)  # model-based batch via constant liar
        points = {(round(c["x"], 3), round(c["y"], 3)) for c in batch}
        assert len(points) >= 3

    def test_works_on_categorical_space(self):
        algo = BayesianOptimization(paper_search_space(), n_trials=6, seed=0)
        run_algo(algo, lambda c: 1.0 if c["optimizer"] == "Adam" else 0.3)
        assert algo.best_observed() is not None

    def test_gp_predict_before_fit(self):
        from repro.hpo.algorithms.bayesian import GaussianProcess

        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_gp_interpolates(self):
        from repro.hpo.algorithms.bayesian import GaussianProcess

        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        gp = GaussianProcess(length_scale=0.5).fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=0.05)
        assert (std < 0.15).all()

    def test_ei_positive_where_uncertain(self):
        from repro.hpo.algorithms.bayesian import expected_improvement

        ei = expected_improvement(np.array([0.5]), np.array([0.5]), best=0.6)
        assert ei[0] > 0


class TestTPE:
    def test_budget(self):
        algo = TPESearch(continuous_space(), n_trials=10, seed=0)
        run_algo(algo, peak_objective)
        assert algo.is_exhausted and len(algo.observed) == 10

    def test_concentrates_near_good_region(self):
        algo = TPESearch(
            continuous_space(), n_trials=40, n_init=10, seed=2, n_candidates=128
        )
        run_algo(algo, peak_objective, batch=1)
        # The last suggestions should cluster near the optimum.
        late = [t.config for t in algo.observed[-10:]]
        mean_x = np.mean([c["x"] for c in late])
        assert abs(mean_x - 0.7) < 0.25

    def test_valid_configs_on_mixed_space(self):
        space = paper_search_space()
        algo = TPESearch(space, n_trials=12, seed=0)
        run_algo(algo, lambda c: 0.5, batch=3)
        for t in algo.observed:
            space.validate(t.config)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            TPESearch(continuous_space(), gamma=0.0)


class TestHyperband:
    def test_rungs_promote_best(self):
        space = SearchSpace([Integer("width", 1, 100)])
        algo = HyperbandSearch(space, max_epochs=9, eta=3, seed=0)
        # Reward wide models so promotion is observable.
        run_algo(algo, lambda c: c["width"] / 100.0, batch=100)
        assert algo.is_exhausted
        # Every observation carries an assigned num_epochs resource.
        epochs = {t.config["num_epochs"] for t in algo.observed}
        assert 9 in epochs and any(e < 9 for e in epochs)

    def test_total_trials_structure(self):
        algo = HyperbandSearch(continuous_space(), max_epochs=9, eta=3)
        # s_max = 2 → 3 brackets.
        assert len(algo._brackets) == 3
        assert algo.total_trials == sum(
            n for b in algo._brackets for (n, _) in b
        )

    def test_promotion_count_shrinks(self):
        algo = HyperbandSearch(continuous_space(), max_epochs=9, eta=3, seed=1)
        first_rung = algo.ask(100)
        n0 = len(first_rung)
        for c in first_rung:
            tell_result(algo, c, float(np.random.default_rng(0).random()))
        second_rung = algo.ask(100)
        assert 0 < len(second_rung) < n0

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            HyperbandSearch(continuous_space(), eta=1)


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["grid", "random", "bayesian", "tpe", "hyperband"]
    )
    def test_lookup(self, name):
        algo = get_algorithm(name, paper_search_space())
        assert algo.space is not None

    def test_kwargs_forwarded(self):
        algo = get_algorithm("random", paper_search_space(), n_trials=3)
        assert algo.n_trials == 3

    def test_instance_passthrough(self):
        algo = GridSearch(paper_search_space())
        assert get_algorithm(algo) is algo

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_algorithm("cmaes", paper_search_space())

    def test_name_requires_space(self):
        with pytest.raises(ValueError, match="SearchSpace"):
            get_algorithm("grid")


def test_core_imports_leave_scipy_unloaded():
    """scipy is imported only when a Gaussian process is fitted or queried."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import sys\n"
        "import repro.hpo, repro.runtime.runtime, repro.simcluster\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
