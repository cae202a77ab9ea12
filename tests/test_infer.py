"""Greedy decoding and step-level beam search."""
import itertools

import numpy as np
import pytest

from svpo import infer
from svpo.env import Env, EnvConfig, Question, TERMINAL, gen_dataset
from svpo.infer import (
    SBSConfig, greedy_decode, inference_record, sbs, sbs_best,
)
from svpo.mcts import SearchConfig, build_forest
from svpo.model import Model
from svpo.pairs import extract_value_targets, label_correct
from svpo.records import load_jsonl, save_jsonl
from svpo.train import spawn_generator

from oracles import (reference_sbs_best, scripted_params,
                     value_bump_params)


@pytest.fixture(scope="module")
def setup():
    env = Env(EnvConfig())
    questions = gen_dataset(seed=41, n=10, difficulty="medium")
    env.register(questions)
    return env, Model(env), questions


def _answer_id(env, offset=0):
    return next(a.id for a in env.vocab
                if a.kind == TERMINAL and a.payload == offset)


def _canonical_steps(env, question):
    return tuple(question.chain) + (_answer_id(env),)


def test_greedy_follows_a_scripted_path(setup):
    env, model, questions = setup
    question = questions[0]
    steps = _canonical_steps(env, question)
    params = scripted_params(model, dict(enumerate(steps)))
    solution = greedy_decode(model, params, question)
    assert solution.steps == steps
    assert solution.correct
    assert solution.predicted == question.truth


def test_greedy_tie_break_and_exhaustion(setup):
    env, model, questions = setup
    question = questions[1]
    # uniform policy: every step ties, the lowest action id wins, and the
    # run walks op 0 to the depth limit without ever answering
    solution = greedy_decode(model, model.zeros_params(), question)
    assert solution.steps == (0,) * env.config.max_depth
    assert not solution.correct
    assert solution.predicted is None
    again = greedy_decode(model, model.zeros_params(), question)
    assert again == solution


def test_greedy_stops_at_the_first_terminal(setup):
    env, model, questions = setup
    question = questions[2]
    params = scripted_params(model, {0: question.chain[0],
                                     1: _answer_id(env)})
    solution = greedy_decode(model, params, question)
    assert len(solution.steps) == 2
    assert env.vocab[solution.steps[-1]].kind == TERMINAL


def test_degenerate_beam_equals_greedy(setup):
    _, model, questions = setup
    params = model.init_params(seed=13, scale=0.5)
    config = SBSConfig(b1=1, b2=1, temperature=1e-6)
    for question in questions:
        wide = sbs(model, params, question, config, rng_seed=3)
        narrow = greedy_decode(model, params, question)
        assert wide.steps == narrow.steps


def test_sbs_is_deterministic_in_the_seed(setup):
    _, model, questions = setup
    params = model.init_params(seed=14, scale=0.3)
    config = SBSConfig(b1=3, b2=5, temperature=0.8)
    traces = {}
    for seed in (0, 1):
        trace = []
        sols = [sbs(model, params, q, config, seed, trace)
                for q in questions[:5]]
        traces[seed] = (trace, [s.steps for s in sols])
    rerun_trace = []
    rerun = [sbs(model, params, q, config, 0, rerun_trace)
             for q in questions[:5]]
    assert [s.steps for s in rerun] == traces[0][1]
    assert rerun_trace == traces[0][0]
    assert traces[0][0] != traces[1][0]


def test_beam_cardinality_bounds(setup):
    _, model, questions = setup
    params = model.init_params(seed=14, scale=0.3)
    config = SBSConfig(b1=3, b2=5, temperature=0.8)
    for question in questions:
        trace = []
        sbs(model, params, question, config, rng_seed=7, trace=trace)
        expands: dict[int, list] = {}
        for row in trace:
            if row[0] == "expand":
                _, level, beam_idx, _, sampled = row
                expands.setdefault(level, []).append(beam_idx)
                assert len(sampled) <= config.b2
            else:
                _, level, retained = row
                assert len(retained) <= config.b1
        for level, idxs in expands.items():
            assert idxs == list(range(len(idxs)))
            assert len(idxs) <= config.b1


def test_finished_candidates_score_the_state_they_answered_from(setup):
    env, model, questions = setup
    params = model.init_params(seed=14, scale=0.3)
    config = SBSConfig(b1=2, b2=5, temperature=0.8)
    finished = 0
    for question in questions:
        best = sbs_best(model, params, question, config, rng_seed=11)
        if best.finished:
            finished += 1
            assert env.vocab[best.prefix[-1]].kind == TERMINAL
            assert best.reward in (-1, 1)
            pre = env.replay(question, best.prefix[:-1])
            assert best.value_score == pytest.approx(
                model.value(params, pre), abs=1e-12)
        else:
            assert best.reward is None
            assert abs(best.value_score) < 1.0
    assert finished >= len(questions) // 2


def test_value_indicator_toy_exact_conditional_behavior():
    # One op then one answer; the value head fires exactly on states whose
    # scratch equals the truth. Whenever the sampler surfaces the correct
    # op at level 0 it must be retained, and whenever the answer is then
    # surfaced at level 1 the returned solution must be the correct one.
    env = Env(EnvConfig(answer_offsets=(0,)))
    question = Question(id=777, start=4, chain=(2,), truth=7,
                        difficulty="easy")
    env.register([question])
    model = Model(env)
    idx = model.featurizer.block("bucket") + (7 - model.featurizer.scratch_lo)
    params = value_bump_params(model, idx, pre=3.0)
    answer = _answer_id(env)
    config = SBSConfig(b1=1, b2=5, temperature=1.0)

    included0 = 0
    both = 0
    n = 300
    for seed in range(n):
        trace = []
        solution = sbs(model, params, question, config, seed, trace)
        level0 = next(r for r in trace if r[0] == "expand" and r[1] == 0)
        if 2 not in level0[4]:
            continue
        included0 += 1
        retained0 = next(r for r in trace if r[0] == "retain" and r[1] == 0)
        assert retained0[2] == ((2,),)
        level1 = next(r for r in trace
                      if r[0] == "expand" and r[1] == 1 and r[3] == (2,))
        if answer in level1[4]:
            both += 1
            assert solution.correct
            assert solution.steps == (2, answer)
    # 5 distinct draws from 6 equally likely ops: inclusion rate 5/6
    assert abs(included0 / n - 5.0 / 6.0) < 0.065
    assert both >= 30


def test_wider_beam_explores_at_least_as_much(setup):
    _, model, questions = setup
    params = model.init_params(seed=14, scale=0.3)
    for question in questions:
        per_level = {}
        for b1 in (1, 3):
            trace = []
            sbs(model, params, question,
                SBSConfig(b1=b1, b2=5, temperature=0.8), rng_seed=5,
                trace=trace)
            counts = {}
            for row in trace:
                if row[0] != "expand":
                    continue
                _, level, _, prefix, sampled = row
                counts.setdefault(level, set()).update(
                    prefix + (a,) for a in sampled)
            per_level[b1] = counts
        for level in per_level[1].keys() & per_level[3].keys():
            assert len(per_level[3][level]) >= len(per_level[1][level])


def test_no_answer_vocabulary_falls_back_to_a_live_candidate():
    env = Env(EnvConfig(answer_offsets=(), max_depth=3))
    question = Question(id=5, start=4, chain=(0,), truth=5,
                        difficulty="easy")
    env.register([question])
    model = Model(env)
    best = sbs_best(model, model.zeros_params(), question,
                    SBSConfig(b1=2, b2=2, temperature=1.0),
                    rng_seed=0)
    assert not best.finished
    assert len(best.prefix) == 3
    solution = sbs(model, model.zeros_params(), question,
                   SBSConfig(b1=2, b2=2, temperature=1.0),
                   rng_seed=0)
    assert not solution.correct
    assert solution.predicted is None


def test_value_guidance_beats_uniform_greedy():
    # Train only the value path (policy head weights stay zero, so the
    # policy remains uniform) on search targets, then compare decoders.
    env = Env(EnvConfig())
    train_qs = gen_dataset(seed=51, n=15, difficulty="easy")
    held_qs = gen_dataset(seed=52, n=20, difficulty="easy")
    env.register(train_qs)
    env.register(held_qs)
    model = Model(env)

    states, targets = [], []
    for q in train_qs:
        forest = build_forest(model, q, model.zeros_params(), SearchConfig(),
                              rng_seed=9)
        label_correct(forest)
        for tgt in extract_value_targets(forest):
            states.append(env.replay(q, tgt.prefix))
            targets.append(tgt.target)
    params = model.zeros_params()
    rng = spawn_generator(0xF17, 0)
    for _ in range(120):
        batch = rng.choice(len(states), size=min(256, len(states)),
                           replace=False)
        step_shared = np.zeros_like(params.w_shared)
        step_value = np.zeros_like(params.w_value)
        for i in batch:
            v, grad = model.value_grad(params, states[i])
            coef = 2.0 * (v - targets[i]) / len(batch)
            step_shared += coef * grad.w_shared
            step_value += coef * grad.w_value
        params.w_shared -= 0.5 * step_shared
        params.w_value -= 0.5 * step_value
    assert np.all(params.w_policy == 0.0)

    greedy_acc = np.mean([greedy_decode(model, params, q).correct
                          for q in held_qs])
    config = SBSConfig(b1=1, b2=5, temperature=1.0)
    # one decode seed's accuracy over these 20 questions has an SD of
    # about 0.06 around a mean of about 0.08, so average over 40 seeds
    sbs_accs = [np.mean([sbs(model, params, q, config, seed).correct
                         for q in held_qs]) for seed in range(40)]
    assert greedy_acc == 0.0
    assert np.mean(sbs_accs) > greedy_acc
    assert np.mean(sbs_accs) > 0.05


def test_sbs_sends_no_empty_forward(setup, monkeypatch):
    """A level whose every pick answers ends the search without a
    forward over an empty state list."""
    env, model, questions = setup
    params = scripted_params(model, {1: _answer_id(env)}, logit=25.0)
    sizes = []
    inner = model.policy_value

    def counted(p, states):
        sizes.append(len(states))
        return inner(p, states)

    monkeypatch.setattr(model, "policy_value", counted)
    for q in questions[:3]:
        sizes.clear()
        trace = []
        best = sbs_best(model, params, q, SBSConfig(b1=1, b2=1), rng_seed=0,
                        trace=trace)
        assert trace[-1] == ("retain", 1, ())
        assert best.finished and best.prefix[-1] == _answer_id(env)
        assert sizes == [1, 1]


def test_sbs_config_validation():
    with pytest.raises(ValueError):
        SBSConfig(b1=0)
    with pytest.raises(ValueError):
        SBSConfig(b2=0)
    with pytest.raises(ValueError):
        SBSConfig(temperature=0.0)


def test_sbs_depth_budget_stops_at_the_envs():
    """Beams expand up to the Env's depth budget and no further, rather
    than expanding states that have no legal actions."""
    env = Env(EnvConfig())
    question = gen_dataset(3, 20, "hard")[0]
    env.register([question])
    model = Model(env)
    trace = []
    sbs(model, model.init_params(0), question, SBSConfig(), 0, trace=trace)
    assert max(entry[1] for entry in trace) == env.config.max_depth - 1


def test_inference_records_and_roundtrip(tmp_path, setup):
    _, model, questions = setup
    params = model.init_params(seed=13, scale=0.5)
    keys = ["question_id", "mode", "b1", "b2", "steps", "predicted",
            "truth", "correct", "score"]
    greedy_rec = inference_record(model, params, questions[0], None)
    assert list(greedy_rec.keys()) == keys
    assert greedy_rec["b1"] is None and greedy_rec["b2"] is None
    assert greedy_rec["score"] is None
    sbs_rec = inference_record(model, params, questions[0],
                               SBSConfig(b1=3), rng_seed=2)
    assert list(sbs_rec.keys()) == keys
    assert sbs_rec["b1"] == 3 and sbs_rec["b2"] == 5
    assert isinstance(sbs_rec["score"], float)

    path = tmp_path / "results.jsonl"
    save_jsonl([greedy_rec, sbs_rec], path)
    assert list(load_jsonl(path)) == [greedy_rec, sbs_rec]


def test_sbs_matches_choice_reference(setup):
    """SBS traces and winners are those of the choice-based sampler over
    one state at a time, at a usual temperature and at one low enough to
    hit the uniform fallback, on medium and hard questions. Scores may
    differ in the last bits, because a batched matrix product rounds
    differently from a one-row one."""
    _, model, questions = setup
    hard_env = Env(EnvConfig())
    hard = gen_dataset(seed=43, n=4, difficulty="hard")
    hard_env.register(hard)
    for model, questions in ((model, questions[:4]),
                             (Model(hard_env), hard)):
        params = model.init_params(seed=3, scale=1.0)
        for b1, temperature, q in itertools.product(
                (1, 3, 4), (0.8, 1e-3), questions):
            config = SBSConfig(b1=b1, b2=5, temperature=temperature)
            got_trace, want_trace = [], []
            got = sbs_best(model, params, q, config, rng_seed=9,
                           trace=got_trace)
            want = reference_sbs_best(model, params, q, config, rng_seed=9,
                                      trace=want_trace)
            assert got_trace == want_trace
            assert (got.prefix, got.finished, got.reward) == \
                (want.prefix, want.finished, want.reward)
            assert got.value_score == pytest.approx(want.value_score,
                                                    rel=1e-12, abs=0)
            assert got.logprob == pytest.approx(want.logprob, rel=1e-12,
                                                abs=0)


@pytest.fixture(scope="module")
def hard_setup():
    env = Env(EnvConfig())
    questions = gen_dataset(seed=61, n=4, difficulty="hard")
    env.register(questions)
    model = Model(env)
    return model, model.init_params(seed=5, scale=1.0), questions


def test_sbs_spawns_one_generator_per_decode(hard_setup, monkeypatch):
    """A decode seeds one stream, however many levels and beam slots it
    runs (these decodes run all eight levels)."""
    model, params, questions = hard_setup
    spawned = []

    def counted(*entropy):
        spawned.append(entropy)
        return spawn_generator(*entropy)

    monkeypatch.setattr(infer, "spawn_generator", counted)
    for b1, q in itertools.product((1, 3), questions):
        spawned.clear()
        trace = []
        sbs_best(model, params, q, SBSConfig(b1=b1), rng_seed=7, trace=trace)
        assert max(entry[1] for entry in trace) == \
            model.env.config.max_depth - 1
        assert spawned == [(infer._SBS_STREAM, 7, q.id)]


class _CountingGenerator:
    """A generator that counts the uniforms drawn from it."""

    def __init__(self, rng, drawn):
        self.rng, self.drawn = rng, drawn

    def random(self, size):
        self.drawn.append(size)
        return self.rng.random(size)


def test_huge_b2_draws_only_the_live_slots_blocks(hard_setup, monkeypatch):
    """Blocks are as wide as the vocabulary at most, so a b2 far above
    it draws no more than b1 slots' blocks at every level."""
    model, params, questions = hard_setup
    env = model.env
    drawn = []
    monkeypatch.setattr(infer, "spawn_generator", lambda *entropy:
                        _CountingGenerator(spawn_generator(*entropy), drawn))
    for b1 in (1, 3):
        config = SBSConfig(b1=b1, b2=10**6)
        for q in questions:
            drawn.clear()
            trace = []
            sbs_best(model, params, q, config, rng_seed=7, trace=trace)
            widest = max(len(entry[4]) for entry in trace
                         if entry[0] == "expand")
            assert widest == len(env.vocab)
            assert sum(drawn) <= b1 * env.config.max_depth * len(env.vocab)


def test_top_slot_draws_do_not_depend_on_b1(hard_setup):
    """Slot 0 expands the same prefix with the same draws at levels 0 and
    1 whether one beam is kept or three (from level 2 on its prefix may
    be a child of another slot)."""
    model, params, questions = hard_setup
    for q in questions:
        top = {}
        for b1 in (1, 3):
            trace = []
            sbs_best(model, params, q, SBSConfig(b1=b1), rng_seed=7,
                     trace=trace)
            top[b1] = [entry for entry in trace if entry[0] == "expand"
                       and entry[1] < 2 and entry[2] == 0]
        assert len(top[1]) == 2
        assert top[1] == top[3]


def test_sbs_golden_decodes(hard_setup):
    """Pins the stream layout: seeded hard decodes return these prefixes
    (every one an answer) at b1 = 1 and b1 = 3."""
    model, params, questions = hard_setup
    golden = {
        1: [(5, 2, 3, 10), (0, 5, 1, 1, 1, 10), (2, 4, 3, 4, 0, 8),
            (2, 4, 4, 3, 4, 9)],
        3: [(5, 2, 3, 2, 3, 3, 3, 6), (1, 1, 1, 3, 4, 0, 5, 8),
            (3, 4, 4, 3, 1, 8), (1, 4, 3, 4, 4, 7)],
    }
    for b1, prefixes in golden.items():
        got = [sbs_best(model, params, q, SBSConfig(b1=b1), rng_seed=7)
               for q in questions]
        assert [best.prefix for best in got] == prefixes
        assert all(best.finished for best in got)
