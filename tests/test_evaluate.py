"""Metrics, experiment config plumbing, and the pipeline driver."""
import dataclasses
import json

import numpy as np
import pytest

from svpo.env import Env, EnvConfig, TERMINAL, gen_dataset
from svpo.evaluate import (
    ARMS, Corpus, EmptyDataset, ExperimentConfig, StageFailure, accuracy,
    build_corpus, build_heldout_pairs,
    eval_accuracy_suite, experiment_config_from_dict,
    experiment_config_to_dict, run_matrix, run_pipeline,
    solution_level_pairs, summary_text, win_rate,
)
from svpo.infer import SBSConfig
from svpo.mcts import SearchConfig, build_forest
from svpo.model import Model
from svpo.pairs import (
    PairCounts, PreferencePair, extract_pairs, label_correct,
)
from svpo.train import PAIR_CHUNK, default_pretrain_config, default_svpo_config

from oracles import (
    mean_over_seeds, scripted_params, value_bump_params, win_rate_oracle,
)


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        seed=0, n_train=24, n_test=10, difficulty="easy", sft_k=3,
        max_value_targets=1200,
        search=SearchConfig(max_simulations=40, max_trees=6),
        pretrain=default_pretrain_config(epochs=2),
        svpo=default_svpo_config(epochs=1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def small_world():
    env = Env(EnvConfig())
    questions = gen_dataset(seed=61, n=12, difficulty="easy")
    env.register(questions)
    return env, Model(env), questions


def _answer_id(env, offset=0):
    return next(a.id for a in env.vocab
                if a.kind == TERMINAL and a.payload == offset)


def test_accuracy_extremes(small_world):
    env, model, questions = small_world
    question = questions[0]
    right = tuple(question.chain) + (_answer_id(env),)
    params = scripted_params(model, dict(enumerate(right)))
    assert accuracy(model, params, [question], "greedy") == 1.0
    wrong = right[:-1] + (_answer_id(env, offset=1),)
    params = scripted_params(model, dict(enumerate(wrong)))
    assert accuracy(model, params, [question], "greedy") == 0.0
    with pytest.raises(EmptyDataset):
        accuracy(model, params, [], "greedy")
    with pytest.raises(ValueError):
        accuracy(model, params, [question], "self_consistency")


def test_accuracy_uniform_greedy_matches_walk_oracle(small_world):
    # independent expectation: uniform logits tie everywhere, so greedy
    # deterministically walks the lowest-id legal action at each state
    env, model, questions = small_world

    def oracle_walk(question):
        state = env.initial_state(question)
        while state.depth < env.config.max_depth:
            action = min(env.legal_actions(state), key=lambda a: a.id)
            state = env.transition(state, action)
            if action.kind == TERMINAL:
                before = env.replay(question, state.steps[:-1])
                return env.terminal_reward(before, action) == 1
        return False

    expected = sum(oracle_walk(q) for q in questions) / len(questions)
    got = accuracy(model, model.zeros_params(), questions, "greedy")
    assert got == expected


def test_win_rate_identity_and_perfect_value_head(small_world):
    env, model, questions = small_world
    question = questions[0]
    # winner ends on a scratch the indicator value head fires for
    op = question.chain[0]
    w_state = env.transition(env.initial_state(question), env.vocab[op])
    other = next(a for a in env.vocab
                 if a.kind != TERMINAL and a.id != op
                 and env.transition(env.initial_state(question), a).scratch
                 != w_state.scratch)
    pairs = [PreferencePair(question.id, (op,), (other.id,), "sibling",
                            0.5, -0.5, 0)]
    params = model.init_params(seed=1)
    report = win_rate(model, params, params, pairs, beta=0.1)
    assert report["implicit"] == 0.5  # identical policies tie every pair
    assert report["n_pairs"] == 1

    idx = model.featurizer.block("bucket") + (
        w_state.scratch - model.featurizer.scratch_lo)
    bump = value_bump_params(model, idx, pre=2.0)
    report = win_rate(model, bump, bump, pairs, beta=0.1)
    assert report["explicit"] == 1.0
    with pytest.raises(EmptyDataset):
        win_rate(model, params, params, [], beta=0.1)


def test_win_rate_random_params_near_half(small_world):
    env, model, questions = small_world
    # orientation-agnostic pairs: both sides are random single-op prefixes
    rng = np.random.default_rng(17)
    pairs = []
    ops = [a.id for a in env.vocab if a.kind != TERMINAL]
    for question in questions:
        for _ in range(50):
            w, l = rng.choice(ops, size=2, replace=False)
            pairs.append(PreferencePair(question.id, (int(w),), (int(l),),
                                        "sibling", 0.0, 0.0, 0))
    accs = []
    for seed in range(20):
        params = model.init_params(seed=100 + seed, scale=0.5)
        accs.append(win_rate(model, params, params, pairs,
                             beta=0.1)["explicit"])
    assert 0.45 < float(np.mean(accs)) < 0.55


def test_batched_win_rate_matches_per_pair_scoring(small_world):
    env, model, questions = small_world
    pairs = []
    for question in questions[:4]:
        forest = build_forest(model, question, model.zeros_params(),
                              SearchConfig(max_simulations=40), rng_seed=3)
        pairs.extend(extract_pairs(label_correct(forest), PairCounts(), 3))
    # two commuting adds before a shared last step reach states with equal
    # features, so the value head ties on this pair exactly
    q = questions[0]
    adds = [a.id for a in env.vocab if a.op == "add"]
    tie = PreferencePair(q.id, (adds[0], adds[1], adds[2]),
                         (adds[1], adds[0], adds[2]), "cousin", 0.0, 0.0, 2)
    pairs.append(tie)
    # more than one kernel chunk
    pairs = pairs * (PAIR_CHUNK // len(pairs) + 1)
    assert len(pairs) > PAIR_CHUNK
    params = model.init_params(seed=5, scale=0.5)
    ref = model.init_params(seed=6, scale=0.5)
    report = win_rate(model, params, ref, pairs, beta=0.1)
    implicit, explicit = win_rate_oracle(model, params, ref, pairs, 0.1)
    assert (report["implicit"], report["explicit"]) == (implicit, explicit)
    assert report["n_pairs"] == len(pairs)
    assert win_rate(model, params, ref, [tie], beta=0.1)["explicit"] == 0.5
    # zero params tie every pair on both scorers
    zero = model.zeros_params()
    report = win_rate(model, zero, zero, pairs, beta=0.1)
    assert (report["implicit"], report["explicit"]) == (0.5, 0.5)
    assert win_rate_oracle(model, zero, zero, pairs, 0.1) == (0.5, 0.5)


def test_heldout_pairs_disjointness_and_determinism(small_world):
    env, model, _ = small_world
    test_qs = gen_dataset(seed=62, n=8, difficulty="easy")
    env.register(test_qs)
    params = model.init_params(seed=3)
    search = SearchConfig(max_simulations=40, max_trees=6)
    counts = PairCounts()
    with pytest.raises(ValueError):
        build_heldout_pairs(model, params, test_qs, search, counts, 0,
                            train_ids={test_qs[0].id})
    first = build_heldout_pairs(model, params, test_qs, search, counts, 0,
                                train_ids=set())
    second = build_heldout_pairs(model, params, test_qs, search, counts, 0,
                                 train_ids=set())
    assert first == second
    assert len(first) >= 30


def test_experiment_config_roundtrip_and_rejection():
    config = tiny_config(solution_level_only=True)
    flat = experiment_config_to_dict(config)
    assert flat["search_max_simulations"] == 40
    assert flat["svpo_epochs"] == 1
    assert flat["solution_level_only"] is True
    assert "pretrain_stage" not in flat
    rebuilt = experiment_config_from_dict(flat)
    assert rebuilt == config
    with pytest.raises(ValueError):
        experiment_config_from_dict({"bogus_key": 1})
    with pytest.raises(ValueError):
        experiment_config_from_dict({"search_bogus": 1})
    with pytest.raises(ValueError):
        experiment_config_from_dict({"pretrain_stage": "svpo"})
    with pytest.raises(ValueError):  # arms are weight overrides now
        experiment_config_from_dict({"no_margin": True})


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_arm_overrides_change_exactly_their_fields(arm):
    """Every arm's overrides are config keys, and applying them changes
    those fields and no other."""
    overrides = ARMS[arm] or {}
    flat = experiment_config_to_dict(tiny_config())
    ablated = experiment_config_to_dict(
        experiment_config_from_dict({**flat, **overrides}))
    assert {k: v for k, v in ablated.items() if flat[k] != v} == overrides


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    return run_pipeline(tiny_config(), out_dir=out), out


def test_pipeline_summary_shape(tiny_bundle):
    bundle, _ = tiny_bundle
    summary = bundle.summary
    assert summary["schema_version"] == 1
    data = summary["data"]
    assert data["n_train"] == 24 and data["n_test"] == 10
    assert data["n_pairs"] == len(bundle.corpus.pairs)
    assert data["n_heldout_pairs"] == len(bundle.heldout)
    for stage in ("sft", "svpo"):
        for key, value in summary["metrics"]["accuracy"][stage].items():
            assert 0.0 <= value <= 1.0, (stage, key)
    rates = summary["metrics"]["win_rate"]
    for split in ("train", "heldout"):
        assert 0.0 <= rates[split]["implicit"] <= 1.0
        assert 0.0 <= rates[split]["explicit"] <= 1.0
    assert rates["train"]["n_pairs"] == data["n_pairs"]
    assert rates["heldout"]["n_pairs"] == data["n_heldout_pairs"]
    assert summary["metrics"]["max_abs_dr"] < 20.0


def test_pipeline_artifacts_written(tiny_bundle):
    _, out = tiny_bundle
    expected = ["questions_train.jsonl", "questions_test.jsonl",
                "forests.jsonl", "pairs.jsonl", "pairs_heldout.jsonl",
                "value_targets.jsonl", "solutions.jsonl", "pair_stats.json",
                "ckpt_pretrain.json", "ckpt_svpo.json", "svpo_log.csv",
                "summary.json"]
    for name in expected:
        assert (out / name).exists(), name
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == json.loads(summary_text(on_disk))


def test_pipeline_reruns_byte_identical(tiny_bundle):
    bundle, out = tiny_bundle
    again = run_pipeline(tiny_config())
    assert summary_text(again.summary) == (out / "summary.json").read_text()


def test_solution_level_filter(tiny_bundle):
    bundle, _ = tiny_bundle
    env = bundle.corpus.env
    kept = solution_level_pairs(env, bundle.corpus.pairs)
    assert kept, "no solution-level pairs in the corpus"
    for pair in kept:
        assert pair.kind == "terminal"
        assert env.vocab[pair.winner[-1]].kind == TERMINAL
        assert env.vocab[pair.loser[-1]].kind == TERMINAL
    assert len(kept) < len(bundle.corpus.pairs)


def test_stage_failures_are_tagged():
    config = tiny_config(counts=PairCounts(0, 0, 0), n_train=6, n_test=4)
    with pytest.raises(StageFailure) as err:
        run_pipeline(config)
    assert err.value.stage == "svpo"


def test_run_matrix_shares_seed_workspaces():
    config = tiny_config(n_train=12, n_test=6)
    results = run_matrix(config, seeds=[0, 1],
                         arms={"sft": None, "full": ARMS["full"]})
    assert set(results) == {"sft", "full"}
    for arm in results:
        assert set(results[arm]) == {0, 1}
        for seed in results[arm]:
            suite = results[arm][seed]["accuracy"]
            assert set(suite) == {"greedy", "sbs_b1", "sbs_b3"}
    value = mean_over_seeds(results["sft"], "accuracy", "greedy")
    expected = (results["sft"][0]["accuracy"]["greedy"]
                + results["sft"][1]["accuracy"]["greedy"]) / 2
    assert value == pytest.approx(expected)


def test_arm_table_is_complete():
    assert set(ARMS) == {"full", "no_margin", "no_mse", "no_reg",
                         "solution_dpo", "sft"}
    assert ARMS["solution_dpo"]["solution_level_only"] is True
