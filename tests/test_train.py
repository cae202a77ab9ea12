"""Loss terms, analytic gradients, and the two-stage training loop."""
import dataclasses
import json
import math

import numpy as np
import pytest

from svpo.env import TERMINAL, Env, EnvConfig, gen_dataset
from svpo.evaluate import solution_level_pairs
from svpo.mcts import SearchConfig, build_forest
from svpo.model import IllegalPrefix, Model, params_to_record
from svpo.pairs import (
    PairCounts, PreferencePair, ValueTarget, extract_pairs,
    extract_sft_solutions, extract_value_targets, label_correct,
)
from svpo.train import (
    PAIR_CHUNK, Checkpoint, EmptyBatch, PretrainConfig, SVPOConfig,
    TrainData, default_pretrain_config, default_svpo_config,
    load_checkpoint, pair_ids, pair_logprobs, parse_kv_text,
    pretrain_batch_grad, save_checkpoint, stage_rows, svpo_batch_grad,
    train_loop,
)

from oracles import (
    dataset_grad, fd_relative_error, implicit_reward_diff,
    max_abs_implicit_diff, pretrain_loss, solution_nll, svpo_batch_oracle,
    svpo_loss, svpo_pair_terms, value_diff,
)


@pytest.fixture(scope="module")
def corpus():
    """A small searched corpus: pairs, solutions, and value targets."""
    env = Env(EnvConfig())
    questions = gen_dataset(seed=31, n=10, difficulty="easy")
    env.register(questions)
    model = Model(env)
    pairs, solutions, targets = [], [], []
    for q in questions:
        forest = build_forest(model, q, model.zeros_params(), SearchConfig(),
                              rng_seed=5)
        label_correct(forest)
        pairs.extend(extract_pairs(forest, PairCounts(), rng_seed=5))
        targets.extend(extract_value_targets(forest))
        solutions.extend(extract_sft_solutions(env, forest, 4))
    assert len(pairs) >= 20 and solutions and targets
    return env, model, pairs, solutions, targets


_NO_IDS = np.zeros(0, dtype=np.intp)


def _sol_ids(rows, solutions):
    return rows.lookup((s.question_id, s.steps) for s in solutions)


def _tgt(rows, targets):
    """(the targets' prefix ids, their target values)."""
    return (rows.lookup((t.question_id, t.prefix) for t in targets),
            np.array([t.target for t in targets]))


# -- closed-form term values ------------------------------------------------


def test_dpo_is_log2_when_policy_equals_reference(corpus):
    _, model, pairs, _, _ = corpus
    params = model.init_params(seed=3)
    config = default_svpo_config()
    pair = pairs[0]
    assert implicit_reward_diff(model, params, params, pair,
                                config.beta) == 0.0
    breakdown = svpo_loss(model, params, params, pair, config)
    assert breakdown.dpo == pytest.approx(math.log(2.0), abs=1e-12)


def test_zero_params_closed_forms(corpus):
    # V == 0 everywhere: margin saturates at gamma, mse is q_w^2, and sft
    # is the sum of uniform log-counts along the winner prefix.
    _, model, pairs, _, _ = corpus
    params = model.zeros_params()
    config = default_svpo_config()
    pair = pairs[0]
    assert value_diff(model, params, pair) == 0.0
    breakdown = svpo_loss(model, params, params, pair, config)
    assert breakdown.margin == pytest.approx(config.gamma, abs=1e-15)
    assert breakdown.mse == pytest.approx(pair.q_w ** 2, abs=1e-12)
    # default vocab: 6 ops legal at depth 0, 6 ops + 5 answers afterwards
    expected_sft = sum(math.log(6.0 if i == 0 else 11.0)
                       for i in range(len(pair.winner)))
    assert breakdown.sft == pytest.approx(expected_sft, abs=1e-12)


def test_total_is_the_weighted_sum(corpus):
    _, model, pairs, _, _ = corpus
    params = model.init_params(seed=7, scale=0.3)
    ref = model.init_params(seed=8, scale=0.3)
    config = default_svpo_config()
    breakdown = svpo_loss(model, params, ref, pairs[1], config)
    expected = (breakdown.dpo + config.w_margin * breakdown.margin
                + config.w_sft * breakdown.sft)
    assert breakdown.total == pytest.approx(expected, abs=1e-12)
    assert breakdown.mse > 0.0  # reported, but the stage weights no MSE


def test_reweighting_shifts_total_linearly(corpus):
    _, model, pairs, _, _ = corpus
    params = model.init_params(seed=7, scale=0.3)
    ref = model.init_params(seed=8, scale=0.3)
    base = svpo_loss(model, params, ref, pairs[1], default_svpo_config())
    bumped = svpo_loss(model, params, ref, pairs[1],
                       default_svpo_config(w_margin=0.5))
    assert bumped.margin == base.margin
    assert bumped.total - base.total == pytest.approx(0.25 * base.margin,
                                                      abs=1e-12)


def test_pretrain_total_weighting(corpus):
    _, model, _, solutions, targets = corpus
    params = model.init_params(seed=9)
    config = default_pretrain_config()
    breakdown = pretrain_loss(model, params, solutions[:8], targets[:32],
                              config)
    assert breakdown.total == pytest.approx(
        breakdown.sft + 0.01 * breakdown.mse, abs=1e-12)
    assert breakdown.dpo == breakdown.margin == 0.0


# -- analytic gradients against finite differences --------------------------


def _fd_setup(corpus):
    _, model, pairs, _, _ = corpus
    params = model.init_params(seed=21, scale=0.4)
    ref = model.init_params(seed=22, scale=0.4)
    config = default_svpo_config()
    # stay clear of the hinge kink so central differences are valid
    pair = next(p for p in pairs
                if abs(config.gamma - value_diff(model, params, p)) > 1e-2)
    return model, params, ref, config, pair


@pytest.mark.parametrize("term", ["dpo", "margin", "sft", "mse"])
def test_fd_per_term(corpus, term):
    model, params, ref, config, pair = _fd_setup(corpus)
    _, grads, _ = svpo_pair_terms(model, params, ref, pair, config)

    def f(p):
        return getattr(svpo_loss(model, p, ref, pair, config), term)

    rng = np.random.default_rng(40)
    assert fd_relative_error(f, params, grads[term], rng, n_coords=15) < 1e-4


def test_fd_batch_gradient(corpus):
    model, params, ref, config, _ = _fd_setup(corpus)
    _, _, pairs, solutions, _ = corpus
    batch = [p for p in pairs
             if abs(config.gamma - value_diff(model, params, p)) > 1e-2][:3]
    assert len(batch) == 3
    sols = solutions[:3]
    rows = stage_rows(model, TrainData(batch, sols))
    ids = pair_ids(rows, batch)
    _, analytic, _ = svpo_batch_grad(model, params,
                                     pair_logprobs(model, ref, ids, rows)[0],
                                     ids, config, _sol_ids(rows, sols), rows)

    def f(p):
        total = 0.0
        for pair in batch:
            breakdown = svpo_loss(model, p, ref, pair, config)
            total += breakdown.dpo + config.w_margin * breakdown.margin
        return (total / len(batch)
                + config.w_sft * solution_nll(model, p, sols))

    rng = np.random.default_rng(42)
    assert fd_relative_error(f, params, analytic, rng, n_coords=20) < 1e-4


# -- the batched kernel against one-at-a-time oracles -----------------------


def _assert_grads_close(actual, expected):
    for name in ("w_shared", "w_policy", "w_value"):
        want = getattr(expected, name)
        np.testing.assert_allclose(getattr(actual, name), want, rtol=1e-10,
                                   atol=1e-13 * max(1.0, np.abs(want).max()))


@pytest.fixture(scope="module")
def kernel_case(corpus):
    """A pair batch with repeated prefixes, the empty prefix and prefixes
    that end in an answer, plus solution and target batches."""
    env, model, pairs, solutions, targets = corpus
    question = env.question(pairs[0].question_id)
    answer = next(a.id for a in env.vocab if a.kind == TERMINAL)
    op = question.chain[0]
    batch = pairs[:12] + [pairs[0], pairs[3],
                          PreferencePair(question.id, (op,), (), "sibling",
                                         0.4, -0.2, 0, tree=0),
                          PreferencePair(question.id, (op, answer), (op,),
                                         "terminal", 1.0, 0.1, 1, tree=0)]
    prefixes = [(p.question_id, s) for p in batch for s in (p.winner,
                                                            p.loser)]
    assert len(set(prefixes)) < len(prefixes)
    assert any(not s for _, s in prefixes)
    assert any(s and env.vocab[s[-1]].kind == TERMINAL for _, s in prefixes)
    tgts = targets[:9] + [ValueTarget(question.id, (), 0.25)]
    params = model.init_params(seed=21, scale=0.4)
    ref = model.init_params(seed=22, scale=0.4)
    return model, params, ref, batch, solutions[:6], tgts


@pytest.mark.parametrize("carried", ["empty", "datasets"])
def test_batched_svpo_grad_matches_per_pair_oracle(kernel_case, carried):
    model, params, ref, batch, sols, _ = kernel_case
    config = default_svpo_config()
    if carried == "empty":
        sols = []
    rows = stage_rows(model, TrainData(batch, sols))
    ids = pair_ids(rows, batch)
    breakdown, grad, max_dr = svpo_batch_grad(
        model, params, pair_logprobs(model, ref, ids, rows)[0], ids,
        config, _sol_ids(rows, sols), rows)
    terms, want, want_dr = svpo_batch_oracle(model, params, ref, batch,
                                             config, sols)
    for name, value in terms.items():
        assert getattr(breakdown, name) == pytest.approx(value, rel=1e-10,
                                                         abs=1e-14)
    assert breakdown.mse == 0.0
    assert (breakdown.sft == 0.0) == (carried == "empty")
    assert max_dr == pytest.approx(want_dr, rel=1e-10)
    _assert_grads_close(grad, want)


def test_batched_pretrain_grad_matches_per_solution_oracle(kernel_case):
    model, params, _, _, sols, tgts = kernel_case
    config = default_pretrain_config()
    rows = stage_rows(model, TrainData(solutions=sols, value_targets=tgts))
    sol_ids, (tgt_ids, values) = _sol_ids(rows, sols), _tgt(rows, tgts)
    breakdown, grad = pretrain_batch_grad(model, params, sol_ids, tgt_ids,
                                          values, config, rows)
    want = pretrain_loss(model, params, sols, tgts, config)
    assert breakdown.sft == pytest.approx(want.sft, rel=1e-10)
    assert breakdown.mse == pytest.approx(want.mse, rel=1e-10)
    assert breakdown.total == pytest.approx(want.total, rel=1e-10)
    _assert_grads_close(grad, dataset_grad(model, params, sols, tgts, config))
    # either dataset alone
    _, only_sols = pretrain_batch_grad(model, params, sol_ids, _NO_IDS,
                                       _NO_IDS, config, rows)
    _assert_grads_close(only_sols,
                        dataset_grad(model, params, sols, [], config))
    _, only_tgts = pretrain_batch_grad(model, params, _NO_IDS, tgt_ids,
                                       values, config, rows)
    _assert_grads_close(only_tgts,
                        dataset_grad(model, params, [], tgts, config))


def test_fd_pretrain_batch_gradient(kernel_case):
    model, params, _, _, sols, tgts = kernel_case
    # weight the value term up so both paths carry comparable gradient
    config = default_pretrain_config(w_mse=1.0)
    rows = stage_rows(model, TrainData(solutions=sols, value_targets=tgts))
    _, analytic = pretrain_batch_grad(model, params, _sol_ids(rows, sols),
                                      *_tgt(rows, tgts), config, rows)

    def f(p):
        return pretrain_loss(model, p, sols, tgts, config).total

    rng = np.random.default_rng(43)
    assert fd_relative_error(f, params, analytic, rng, n_coords=20) < 1e-4


def test_batched_entry_points_raise_illegal_prefix(kernel_case):
    # prefixes are checked where they are compiled: by prefix_rows, and so
    # by stage_rows, which compiles a corpus before either training stage
    model, params, ref, batch, sols, _ = kernel_case
    env = model.env
    qid = batch[0].question_id
    answer = next(a.id for a in env.vocab if a.kind == TERMINAL)
    too_long = (0,) * (env.config.max_depth + 1)
    for bad in [(answer,), too_long, (0, -1), (0, len(env.vocab))]:
        with pytest.raises(IllegalPrefix):
            model.prefix_rows([(qid, batch[0].winner), (qid, bad)])
        pair = PreferencePair(qid, batch[0].winner, bad, "sibling", 0.0,
                              0.0, 0, tree=0)
        with pytest.raises(IllegalPrefix):
            stage_rows(model, TrainData(pairs=batch[:3] + [pair]))
        solution = dataclasses.replace(sols[0], steps=bad)
        with pytest.raises(IllegalPrefix):
            stage_rows(model, TrainData(solutions=sols[:2] + [solution]))


# -- the training loop -------------------------------------------------------


def _init_ckpt(model, seed=2):
    return Checkpoint(params=model.init_params(seed=seed), ref_params=None,
                      step=0, config={})


def _train(model, data, config, rng_seed, init, log=None):
    """train_loop over rows compiled from exactly `data`."""
    return train_loop(model, data, config, rng_seed, init,
                      stage_rows(model, data), log)


def test_reference_stays_frozen(corpus):
    _, model, pairs, _, _ = corpus
    init = _init_ckpt(model)
    frozen = json.dumps(params_to_record(init.params))
    config = default_svpo_config(epochs=2, batch_size=16)
    ckpt = _train(model, TrainData(pairs=pairs[:40]), config, 1, init)
    assert json.dumps(params_to_record(ckpt.ref_params)) == frozen
    assert json.dumps(params_to_record(init.params)) == frozen
    assert json.dumps(params_to_record(ckpt.params)) != frozen


def test_zero_lr_changes_nothing(corpus):
    _, model, pairs, _, _ = corpus
    init = _init_ckpt(model)
    config = default_svpo_config(epochs=1, batch_size=16, lr=0.0)
    ckpt = _train(model, TrainData(pairs=pairs[:32]), config, 1, init)
    assert params_to_record(ckpt.params) == params_to_record(init.params)


def test_training_is_deterministic(corpus):
    _, model, pairs, _, _ = corpus
    config = default_svpo_config(epochs=2, batch_size=8)
    data = TrainData(pairs=pairs[:40])
    runs = [_train(model, data, config, 9, _init_ckpt(model))
            for _ in range(2)]
    rec_a = json.dumps(params_to_record(runs[0].params))
    rec_b = json.dumps(params_to_record(runs[1].params))
    assert rec_a == rec_b
    other = _train(model, data, config, 10, _init_ckpt(model))
    assert json.dumps(params_to_record(other.params)) != rec_a


def test_superset_rows_train_bit_identically(corpus):
    """train_loop over rows compiled from a strict superset of `data`
    writes the same params and log rows, bit for bit, as over rows
    compiled from exactly `data`. The extra prefixes (other questions')
    are compiled first, so every id of `data` shifts. Both stages, and
    the solution-level pair subset the preference stage may train on."""
    env, model, pairs, solutions, targets = corpus
    qids = sorted({p.question_id for p in pairs})
    ours = set(qids[::2])

    def split(items):
        return ([x for x in items if x.question_id in ours],
                [x for x in items if x.question_id not in ours])

    (pairs, other_pairs), (sols, other_sols), (tgts, other_tgts) = (
        split(pairs), split(solutions), split(targets))
    level = solution_level_pairs(env, pairs)
    assert other_pairs and other_sols and other_tgts and level
    superset = stage_rows(model, TrainData(other_pairs + pairs,
                                           other_sols + sols,
                                           other_tgts + tgts))
    cases = [
        (TrainData(solutions=sols, value_targets=tgts),
         default_pretrain_config(epochs=2, batch_size=16)),
        (TrainData(pairs, sols), default_svpo_config(epochs=2, batch_size=8)),
        (TrainData(level, sols), default_svpo_config(epochs=2, batch_size=4)),
    ]
    for data, config in cases:
        exact = stage_rows(model, data)
        assert len(exact.x) < len(superset.x)
        keys = [(s.question_id, s.steps) for s in data.solutions]
        assert (exact.lookup(keys) != superset.lookup(keys)).all()
        assert (pair_ids(exact, data.pairs)
                != pair_ids(superset, data.pairs)).all()
        runs = []
        for rows in (exact, superset):
            log = []
            ckpt = train_loop(model, data, config, 3, _init_ckpt(model),
                              rows, log)
            runs.append((json.dumps(params_to_record(ckpt.params)),
                         json.dumps(log)))
        assert runs[0] == runs[1]


def test_pair_logprobs_dedupe_gives_the_undeduped_bits(corpus):
    """Scoring each distinct prefix of a chunk once gives the bits that
    scoring every winner and loser of the chunk does, in corpus order,
    where prefixes repeat both within and across chunks."""
    _, model, pairs, _, _ = corpus
    pairs = pairs * (PAIR_CHUNK // len(pairs) + 2)
    rows = stage_rows(model, TrainData(pairs=pairs))
    ids = pair_ids(rows, pairs)
    chunks = [ids[s:s + PAIR_CHUNK] for s in range(0, len(ids), PAIR_CHUNK)]
    assert len(chunks) > 1 and len(set(chunks[0].ravel())) < chunks[0].size
    assert set(chunks[0].ravel()) & set(chunks[1].ravel())
    params = model.init_params(seed=2)
    want = np.concatenate(
        [np.stack(model.seq_logprob_grad(params, rows, chunk.ravel())[:2])
         .reshape(2, -1, 2) for chunk in chunks], axis=1)
    got = pair_logprobs(model, params, ids, rows)
    assert got.shape == (2, len(pairs), 2)
    assert np.array_equal(got, want)


def test_pretraining_descends(corpus):
    _, model, pairs, solutions, targets = corpus
    config = default_pretrain_config(epochs=6, batch_size=16)
    init = _init_ckpt(model, seed=0)
    before = pretrain_loss(model, init.params, solutions, targets, config)
    data = TrainData(solutions=solutions, value_targets=targets)
    ckpt = _train(model, data, config, 0, init)
    after = pretrain_loss(model, ckpt.params, solutions, targets, config)
    assert after.sft < before.sft
    assert after.mse < before.mse
    assert after.total < before.total


def test_preference_stage_descends(corpus):
    _, model, pairs, _, _ = corpus
    init = _init_ckpt(model, seed=4)
    config = default_svpo_config(epochs=3, batch_size=16)
    data = TrainData(pairs=pairs)
    ckpt = _train(model, data, config, 2, init)
    rows = stage_rows(model, data)
    ids = pair_ids(rows, pairs)
    ref_logprobs, _ = pair_logprobs(model, init.params, ids, rows)
    before, _, _ = svpo_batch_grad(model, init.params, ref_logprobs, ids,
                                   config, _NO_IDS, rows)
    after, _, _ = svpo_batch_grad(model, ckpt.params, ref_logprobs,
                                  ids, config, _NO_IDS, rows)
    assert after.total < before.total
    assert after.dpo < before.dpo


def test_implicit_diff_zero_at_reference(corpus):
    _, model, pairs, _, _ = corpus
    params = model.init_params(seed=5)
    assert max_abs_implicit_diff(model, params, params, pairs[:20],
                                 beta=0.1) == 0.0


def test_empty_inputs_raise(corpus):
    _, model, _, _, _ = corpus
    with pytest.raises(EmptyBatch):
        _train(model, TrainData(), default_svpo_config(), 0,
               _init_ckpt(model))
    with pytest.raises(EmptyBatch):
        _train(model, TrainData(), default_pretrain_config(), 0,
               _init_ckpt(model))
    with pytest.raises(EmptyBatch):
        svpo_batch_grad(model, model.zeros_params(), np.zeros((0, 2)),
                        np.zeros((0, 2), dtype=np.intp),
                        default_svpo_config(), _NO_IDS,
                        stage_rows(model, TrainData()))
    with pytest.raises(EmptyBatch):
        pretrain_batch_grad(model, model.zeros_params(), _NO_IDS, _NO_IDS,
                            _NO_IDS, default_pretrain_config(),
                            stage_rows(model, TrainData()))


def test_log_rows_and_step_count(corpus):
    _, model, pairs, solutions, targets = corpus
    init = _init_ckpt(model)
    log = []
    config = default_svpo_config(epochs=2, batch_size=16)
    _train(model, TrainData(pairs=pairs[:40]), config, 1, init, log)
    per_epoch = -(-40 // 16)
    assert len(log) == 2 * per_epoch
    assert [row["step"] for row in log] == list(range(1, len(log) + 1))
    assert all(row["stage"] == "svpo" for row in log)
    assert all(row["grad_norm"] >= 0.0 for row in log)
    assert list(log[0].keys()) == ["step", "stage", "dpo", "margin", "sft",
                                   "mse", "total", "grad_norm", "max_abs_dr"]
    assert all(0.0 <= row["max_abs_dr"] < 20.0 for row in log)
    # pretrain batches advance in lockstep, driven by the larger dataset
    log2 = []
    config2 = default_pretrain_config(epochs=2, batch_size=8)
    data2 = TrainData(solutions=solutions[:3], value_targets=targets[:50])
    _train(model, data2, config2, 1, _init_ckpt(model), log2)
    assert len(log2) == 2 * -(-50 // 8)
    assert all(row["stage"] == "pretrain" for row in log2)


def test_checkpoint_roundtrip(tmp_path, corpus):
    _, model, pairs, _, _ = corpus
    init = _init_ckpt(model)
    config = default_svpo_config(epochs=1, batch_size=16)
    ckpt = _train(model, TrainData(pairs=pairs[:16]), config, 1, init)
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert params_to_record(loaded.params) == params_to_record(ckpt.params)
    assert params_to_record(loaded.ref_params) == params_to_record(
        ckpt.ref_params)
    assert loaded.step == ckpt.step
    assert loaded.config == ckpt.config
    # ref-less checkpoints survive too
    save_checkpoint(_init_ckpt(model), path)
    assert load_checkpoint(path).ref_params is None


def test_config_validation():
    for cls in (PretrainConfig, SVPOConfig):
        for bad in ({"lr": -0.1}, {"batch_size": 0}, {"epochs": 0},
                    {"w_sft": -1.0}):
            with pytest.raises(ValueError):
                cls(**bad)
    for bad in ({"beta": 0.0}, {"gamma": -0.5}, {"w_margin": -1.0}):
        with pytest.raises(ValueError):
            SVPOConfig(**bad)
    with pytest.raises(ValueError):
        PretrainConfig(w_mse=-1.0)
    with pytest.raises(TypeError):  # no preference terms in pretraining
        PretrainConfig(beta=0.1)
    with pytest.raises(TypeError):  # no value MSE in the preference stage
        SVPOConfig(w_mse=0.25)


def test_kv_config_files():
    text = "lr = 0.1\nepochs = 3  # short run\nstage = pretrain\n\n# note\n"
    parsed = parse_kv_text(text)
    assert parsed == {"lr": 0.1, "epochs": 3, "stage": "pretrain"}
    assert isinstance(parsed["epochs"], int)
    with pytest.raises(ValueError):
        parse_kv_text("no separator here")
    assert parse_kv_text("a = True\nb = 2\n") == {"a": True, "b": 2}
