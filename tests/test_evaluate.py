"""Metrics, experiment config plumbing, and the pipeline driver."""
import csv
import dataclasses
import json

import numpy as np
import pytest

from svpo import evaluate
from svpo.env import Env, EnvConfig, TERMINAL, gen_dataset
from svpo.evaluate import (
    ARMS, Corpus, EmptyDataset, ExperimentConfig, StageFailure, accuracy,
    build_corpus, build_heldout_pairs,
    eval_accuracy_suite, eval_stage, experiment_config_from_dict,
    experiment_config_to_dict, run_matrix, run_pipeline,
    solution_level_pairs, summary_text, svpo_stage, win_rate,
)
from svpo.infer import SBSConfig
from svpo.mcts import SearchConfig, build_forest
from svpo.model import Model, params_to_record
from svpo.pairs import (
    PairCounts, PreferencePair, extract_pairs, label_correct,
)
from svpo.train import (
    PAIR_CHUNK, PretrainConfig, SVPOConfig, TrainData,
    default_pretrain_config, default_svpo_config, stage_rows,
)

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


def _win_rate(model, params, ref_params, pairs, beta):
    """win_rate over rows compiled from exactly `pairs`."""
    return win_rate(model, params, ref_params, pairs, beta,
                    stage_rows(model, TrainData(pairs=pairs)))


def _answer_id(env, offset=0):
    return next(a.id for a in env.vocab
                if a.kind == TERMINAL and a.payload == offset)


def test_accuracy_extremes(small_world):
    env, model, questions = small_world
    question = questions[0]
    right = tuple(question.chain) + (_answer_id(env),)
    params = scripted_params(model, dict(enumerate(right)))
    assert accuracy(model, params, [question], None) == 1.0
    wrong = right[:-1] + (_answer_id(env, offset=1),)
    params = scripted_params(model, dict(enumerate(wrong)))
    assert accuracy(model, params, [question], None) == 0.0
    with pytest.raises(EmptyDataset):
        accuracy(model, params, [], None)


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
    got = accuracy(model, model.zeros_params(), questions, None)
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
                            0.5, -0.5, 0, tree=0)]
    params = model.init_params(seed=1)
    report = _win_rate(model, params, params, pairs, 0.1)
    assert report["implicit"] == 0.5  # identical policies tie every pair
    assert report["n_pairs"] == 1

    idx = model.featurizer.block("bucket") + (
        w_state.scratch - model.featurizer.scratch_lo)
    bump = value_bump_params(model, idx, pre=2.0)
    report = _win_rate(model, bump, bump, pairs, 0.1)
    assert report["explicit"] == 1.0
    with pytest.raises(EmptyDataset):
        _win_rate(model, params, params, [], 0.1)


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
                                        "sibling", 0.0, 0.0, 0, tree=0))
    accs = []
    for seed in range(20):
        params = model.init_params(seed=100 + seed, scale=0.5)
        accs.append(_win_rate(model, params, params, pairs,
                              0.1)["explicit"])
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
                         (adds[1], adds[0], adds[2]), "cousin", 0.0, 0.0, 2,
                         tree=0)
    pairs.append(tie)
    # more than one kernel chunk
    pairs = pairs * (PAIR_CHUNK // len(pairs) + 1)
    assert len(pairs) > PAIR_CHUNK
    params = model.init_params(seed=5, scale=0.5)
    ref = model.init_params(seed=6, scale=0.5)
    report = _win_rate(model, params, ref, pairs, 0.1)
    implicit, explicit = win_rate_oracle(model, params, ref, pairs, 0.1)
    assert (report["implicit"], report["explicit"]) == (implicit, explicit)
    assert report["n_pairs"] == len(pairs)
    assert _win_rate(model, params, ref, [tie], 0.1)["explicit"] == 0.5
    # zero params tie every pair on both scorers
    zero = model.zeros_params()
    report = _win_rate(model, zero, zero, pairs, 0.1)
    assert (report["implicit"], report["explicit"]) == (0.5, 0.5)
    assert win_rate_oracle(model, zero, zero, pairs, 0.1) == (0.5, 0.5)


def test_heldout_pairs_disjointness_and_determinism(small_world):
    env, model, _ = small_world
    test_qs = gen_dataset(seed=62, n=8, difficulty="easy")
    env.register(test_qs)
    params = model.init_params(seed=3)
    search = SearchConfig(max_simulations=40, max_trees=6)
    counts = PairCounts()
    first = build_heldout_pairs(model, params, test_qs, search, counts, 0)
    second = build_heldout_pairs(model, params, test_qs, search, counts, 0)
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
    # a value must be of its field's type: bool for bool, an int that is
    # not a bool for int, an int or a float for float, a str for str
    for key, value in [("solution_level_only", "no"),
                       ("solution_level_only", 1), ("n_train", True),
                       ("seed", 1.5), ("search_n_children", 2.5),
                       ("svpo_lr", True), ("svpo_gamma", "0.5"),
                       ("difficulty", 3)]:
        with pytest.raises(ValueError, match=key):
            experiment_config_from_dict({key: value})
    # a float field stores an int as a float, so 0 and 0.0 write the same
    # summary.json and checkpoint bytes
    lr = experiment_config_from_dict({"svpo_lr": 1}).svpo.lr
    assert lr == 1.0 and type(lr) is float
    as_int, as_float = (json.dumps(experiment_config_to_dict(
        experiment_config_from_dict({"svpo_w_margin": v}))) for v in (0, 0.0))
    assert as_int == as_float


def test_config_key_set_is_pinned():
    """Every settable config-file key; adding or removing a knob must
    change this list deliberately."""
    assert sorted(experiment_config_to_dict(ExperimentConfig())) == [
        "counts_n_cousin", "counts_n_sibling", "counts_n_terminal",
        "difficulty", "max_value_targets", "n_test", "n_train",
        "pretrain_batch_size", "pretrain_epochs", "pretrain_lr",
        "pretrain_w_mse", "pretrain_w_sft",
        "sbs_b1", "sbs_b2", "sbs_temperature",
        "search_c_puct", "search_max_simulations", "search_max_trees",
        "search_n_children", "search_target_correct", "search_temperature",
        "seed", "sft_k", "solution_level_only",
        "svpo_batch_size", "svpo_beta", "svpo_epochs", "svpo_gamma",
        "svpo_lr", "svpo_w_margin", "svpo_w_sft",
    ]


def test_stage_configs_must_match_their_slots():
    """The stage a slot trains is its config's type: a preference config
    in the pretrain slot would run preference training there."""
    with pytest.raises(ValueError):
        ExperimentConfig(pretrain=SVPOConfig())
    with pytest.raises(ValueError):
        ExperimentConfig(svpo=PretrainConfig())


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


def test_preference_stage_reads_no_value_targets(tiny_bundle):
    """The preference stage trains on pairs and SFT solutions only: from
    one pretrain checkpoint, corpora that differ only in their value
    targets (negated, or none, rows kept) give byte-identical params."""
    bundle, _ = tiny_bundle
    corpus = bundle.corpus
    assert corpus.value_targets
    negated = [dataclasses.replace(t, target=-t.target)
               for t in corpus.value_targets]
    trained = [json.dumps(params_to_record(svpo_stage(
        dataclasses.replace(corpus, value_targets=targets), bundle.sft_ckpt,
        bundle.config).params)) for targets in (negated, [])]
    assert trained[0] == trained[1] == json.dumps(
        params_to_record(bundle.svpo_ckpt.params))


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
                "value_targets.jsonl", "solutions.jsonl",
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


def test_summary_config_block_reads_back_as_the_config(tiny_bundle):
    """summary.json's config block holds every value unrounded, so a
    beta of 1e-9 and a learning rate of 5e-5 read back as the config that
    ran; only the data and metrics blocks are rounded."""
    bundle, _ = tiny_bundle
    config = experiment_config_from_dict({
        **experiment_config_to_dict(tiny_config()),
        "svpo_beta": 1e-9, "svpo_lr": 5e-5})
    summary = json.loads(summary_text(eval_stage(
        bundle.corpus, bundle.sft_ckpt, bundle.svpo_ckpt, bundle.heldout, [],
        config)))
    assert summary["config"] == experiment_config_to_dict(config)
    assert experiment_config_from_dict(summary["config"]) == config


def _count_compiles(monkeypatch) -> list:
    """Record the arguments of every Model.prefix_rows call from now on."""
    compiled = []
    prefix_rows = Model.prefix_rows

    def counted(self, *args):
        compiled.append(args)
        return prefix_rows(self, *args)

    monkeypatch.setattr(Model, "prefix_rows", counted)
    return compiled


def test_pipeline_compiles_each_corpus_once(monkeypatch):
    """One prefix compile for the corpus (both training stages and the
    training-pair win rates) and one for the held-out pairs."""
    compiled = _count_compiles(monkeypatch)
    run_pipeline(tiny_config())
    assert len(compiled) == 2


def test_pipeline_preference_stage_carries_pretraining_terms(tiny_bundle):
    """Of pretraining's terms the preference stage carries the SFT term
    only; its log keeps the mse column, which reads 0."""
    _, out = tiny_bundle
    with open(out / "svpo_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(float(row["sft"]) > 0.0 for row in rows)
    assert all(float(row["mse"]) == 0.0 for row in rows)


def test_every_training_arm_changes_the_trained_params(tiny_bundle):
    """Each arm moves some trained weight by more than 1e-3 from full's:
    an arm whose term only flips low bits measures nothing."""
    bundle, _ = tiny_bundle
    flat = experiment_config_to_dict(bundle.config)
    trained = {}
    for arm, overrides in ARMS.items():
        if overrides is not None:
            cfg = experiment_config_from_dict({**flat, **overrides})
            trained[arm] = svpo_stage(bundle.corpus, bundle.sft_ckpt,
                                      cfg).params
    full = trained.pop("full")
    assert params_to_record(full) == params_to_record(bundle.svpo_ckpt.params)
    for arm, params in trained.items():
        moved = max(float(np.abs(getattr(params, name)
                                 - getattr(full, name)).max())
                    for name in ("w_shared", "w_policy", "w_value"))
        assert moved > 1e-3, (arm, moved)


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


def _with_rows(corpus, pairs, solutions=(), targets=()):
    """The corpus with rows compiled from exactly the given data."""
    return dataclasses.replace(corpus, rows=stage_rows(
        corpus.model, TrainData(pairs, list(solutions), list(targets))))


def test_run_matrix_compiles_each_seeds_rows_once(monkeypatch):
    """One prefix compile per seed for the corpus (both stages, every
    arm, training-pair win rates) and one for the held-out pairs; the
    metrics equal those of stages that each train and score on rows
    compiled from exactly their own data."""
    config = tiny_config(n_train=12, n_test=6)
    arms = {"sft": None, "full": ARMS["full"],
            "solution_dpo": ARMS["solution_dpo"]}
    expected = {arm: {} for arm in arms}
    for seed in (0, 1):
        cfg = evaluate.seed_config(config, seed)
        corpus = build_corpus(cfg)
        sft_ckpt = evaluate.pretrain_stage(_with_rows(
            corpus, [], corpus.solutions, corpus.value_targets), cfg)
        heldout = evaluate.heldout_stage(corpus, sft_ckpt, cfg)
        assert heldout
        heldout_rows = stage_rows(corpus.model, TrainData(pairs=heldout))
        for arm, overrides in arms.items():
            arm_cfg, params, ref = cfg, sft_ckpt.params, None
            if overrides is not None:
                arm_cfg = experiment_config_from_dict(
                    {**experiment_config_to_dict(cfg), **overrides})
                pairs = corpus.pairs
                if arm_cfg.solution_level_only:
                    pairs = solution_level_pairs(corpus.env, pairs)
                ckpt = svpo_stage(_with_rows(corpus, pairs, corpus.solutions,
                                             corpus.value_targets),
                                  sft_ckpt, arm_cfg)
                params, ref = ckpt.params, ckpt.ref_params
            expected[arm][seed] = {
                "accuracy": eval_accuracy_suite(corpus, params, arm_cfg),
                "win_rate": evaluate.eval_win_rates(
                    _with_rows(corpus, corpus.pairs), params, ref, heldout,
                    heldout_rows, arm_cfg.svpo.beta)}

    compiled = _count_compiles(monkeypatch)
    results = run_matrix(config, seeds=[0, 1], arms=arms,
                         with_win_rates=True)
    assert len(compiled) == 4
    assert results == expected


@pytest.mark.parametrize("overrides", [{"svpo_gamma": -1.0},
                                       {"svpo_gama": 1.0},
                                       {"svpo_gamma": float("nan")}])
def test_run_matrix_refuses_bad_overrides_before_any_work(monkeypatch,
                                                          overrides):
    def no_work(config):
        raise AssertionError("corpus built before the arms were checked")

    monkeypatch.setattr(evaluate, "build_corpus", no_work)
    with pytest.raises(ValueError):
        run_matrix(tiny_config(), seeds=[0],
                   arms={"full": ARMS["full"], "bad": overrides})


def test_arm_table_is_complete():
    assert set(ARMS) == {"full", "pref_off", "no_margin", "solution_dpo",
                         "sft"}
    assert ARMS["solution_dpo"]["solution_level_only"] is True
