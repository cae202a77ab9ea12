"""Environment tests, anchored on a brute-force reachability oracle."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svpo import env as envmod
from svpo.env import (
    DIFFICULTY_STEPS, INTERMEDIATE, TERMINAL, Action, DepthExceeded, Env,
    EnvConfig, IllegalAction, NotTerminal, Question, State, compute_truth,
    gen_dataset, load_dataset, question_from_record, question_to_record,
    save_dataset, vocabulary,
)

from oracles import choice_gen_dataset


def brute_force_solvable(env: Env, question: Question) -> bool:
    """Oracle: breadth-first search over reachable (depth, scratch) pairs,
    ignoring the canonical chain entirely. A question is solvable iff some
    reachable state at depth >= 1 (with room for one more step) admits a
    terminal action whose proposed answer hits the truth."""
    offsets = [a.payload for a in env.vocab if a.kind == TERMINAL]
    ops = [a for a in env.vocab if a.kind == INTERMEDIATE]
    frontier = {question.start}
    for depth in range(1, env.config.max_depth + 1):
        frontier = {envmod.apply_op(s, op) for s in frontier for op in ops}
        if depth >= env.config.max_depth:
            break
        if any(s + off == question.truth for s in frontier for off in offsets):
            return True
    return False


def test_gen_dataset_deterministic():
    a = gen_dataset(seed=7, n=50, difficulty="medium")
    b = gen_dataset(seed=7, n=50, difficulty="medium")
    assert a == b
    c = gen_dataset(seed=8, n=50, difficulty="medium")
    assert a != c


@pytest.mark.parametrize("difficulty", sorted(DIFFICULTY_STEPS))
@pytest.mark.parametrize("config", [
    None, EnvConfig(add_consts=(1, -3), mul_consts=(2, 3),
                    answer_offsets=(0, 1))])
def test_gen_dataset_matches_choice_reference(difficulty, config,
                                              monkeypatch):
    """gen_dataset's questions are those of one `rng.choice(op_ids)` per
    chain op, field for field, and its generator ends where the
    reference's does."""
    for seed in (0, 7, 123_456):
        made = []

        class Recorded(np.random.PCG64):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "PCG64", Recorded)
            got = gen_dataset(seed, 40, difficulty, config)
        want, rng = choice_gen_dataset(seed, 40, difficulty, config)
        assert got == want
        assert all(type(aid) is int for q in got for aid in q.chain)
        [bit_generator] = made
        got_state, want_state = bit_generator.state, rng.bit_generator.state
        for key in ("state", "has_uint32", "uinteger"):
            assert got_state[key] == want_state[key]


def test_state_is_an_immutable_value():
    """States compare and hash by value, refuse attribute assignment and
    change only through `_replace`, which makes a new state."""
    a = State(3, (0, 5), 7, 2)
    b = State(question_id=3, steps=(0, 5), scratch=7, depth=2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert State._fields == ("question_id", "steps", "scratch", "depth")
    with pytest.raises(AttributeError):
        a.scratch = 8
    c = a._replace(scratch=8)
    assert c.scratch == 8 and a.scratch == 7 and c != a


def test_gen_dataset_ids_disjoint_across_seeds():
    a = {q.id for q in gen_dataset(seed=7, n=200, difficulty="easy")}
    b = {q.id for q in gen_dataset(seed=8, n=200, difficulty="easy")}
    assert not (a & b)


def test_gen_dataset_size_bounds():
    assert len(gen_dataset(seed=1, n=1, difficulty="easy")) == 1
    with pytest.raises(ValueError):
        gen_dataset(seed=1, n=0, difficulty="easy")
    with pytest.raises(ValueError):
        gen_dataset(seed=1, n=5, difficulty="brutal")


@pytest.mark.parametrize("difficulty", ["easy", "medium", "hard"])
def test_all_generated_questions_solvable(difficulty):
    questions = gen_dataset(seed=7, n=100, difficulty=difficulty)
    env = Env(questions=questions)
    lo, hi = envmod.DIFFICULTY_STEPS[difficulty]
    for q in questions:
        # canonical solution length = ops + answer, inside the band
        assert lo <= len(q.chain) + 1 <= hi
        assert brute_force_solvable(env, q)
    assert sum(brute_force_solvable(env, q) for q in questions) == 100


def test_truth_is_pure_function_of_spec():
    questions = gen_dataset(seed=3, n=30, difficulty="medium")
    cfg = EnvConfig()
    for q in questions:
        assert q.truth == compute_truth(cfg, q.start, q.chain)


def test_hand_worked_chain():
    # start 3, then +2, then *4: (3+2)*4 = 20
    cfg = EnvConfig(add_consts=(2,), mul_consts=(4,))
    vocab = vocabulary(cfg)
    assert vocab[0].name == "add+2" and vocab[1].name == "mul*4"
    assert compute_truth(cfg, 3, (0, 1)) == 20
    env = Env(cfg)
    q = Question(id=0, start=3, chain=(0, 1), truth=20, difficulty="easy")
    env.register([q])
    state = env.replay(q, (0, 1))
    assert state.scratch == 20 and state.depth == 2


def test_legal_actions_depth_gating():
    env = Env()
    q = gen_dataset(seed=2, n=1, difficulty="medium")[0]
    env.register([q])
    s0 = env.initial_state(q)
    acts0 = env.legal_actions(s0)
    assert acts0 and all(a.kind == INTERMEDIATE for a in acts0)
    s1 = env.transition(s0, acts0[0])
    acts1 = env.legal_actions(s1)
    assert any(a.kind == TERMINAL for a in acts1)
    n_ops = len(env.config.add_consts) + len(env.config.mul_consts)
    assert len(acts1) == n_ops + len(env.config.answer_offsets)
    # same state shape at any depth in [1, max_depth): count is fixed
    s = s1
    while s.depth < env.config.max_depth - 1:
        s = env.transition(s, acts0[0])
        assert len(env.legal_actions(s)) == len(acts1)


def test_legal_actions_at_depth_budget_raises():
    env = Env()
    q = gen_dataset(seed=2, n=1, difficulty="easy")[0]
    env.register([q])
    s = env.initial_state(q)
    add = env.vocab[0]
    for _ in range(env.config.max_depth):
        s = env.transition(s, add)
    assert s.depth == env.config.max_depth
    with pytest.raises(DepthExceeded):
        env.legal_actions(s)
    with pytest.raises(DepthExceeded):
        env.transition(s, add)


def test_transition_appends_and_rewrites():
    env = Env()
    q = Question(id=1, start=5, chain=(0,), truth=6, difficulty="easy")
    env.register([q])
    s0 = env.initial_state(q)
    add2 = next(a for a in env.vocab if a.name == "add+2")
    mul2 = next(a for a in env.vocab if a.name == "mul*2")
    s1 = env.transition(s0, add2)
    assert (s1.scratch, s1.depth, s1.steps) == (7, 1, (add2.id,))
    s2 = env.transition(s1, mul2)
    assert (s2.scratch, s2.depth) == (14, 2)
    ans0 = next(a for a in env.vocab if a.name == "ans+0")
    s3 = env.transition(s2, ans0)
    # terminal step never rewrites scratch
    assert s3.scratch == 14 and s3.depth == 3


def test_terminal_action_illegal_at_depth_zero():
    env = Env()
    q = gen_dataset(seed=4, n=1, difficulty="easy")[0]
    env.register([q])
    ans0 = next(a for a in env.vocab if a.name == "ans+0")
    with pytest.raises(IllegalAction):
        env.transition(env.initial_state(q), ans0)


def test_terminal_reward_sign():
    env = Env()
    q = Question(id=2, start=4, chain=(1,), truth=6, difficulty="easy")
    env.register([q])
    add2 = next(a for a in env.vocab if a.name == "add+2")
    s1 = env.transition(env.initial_state(q), add2)  # scratch 6 == truth
    ans0 = next(a for a in env.vocab if a.name == "ans+0")
    ans1 = next(a for a in env.vocab if a.name == "ans+1")
    assert env.proposed_answer(s1, ans0) == 6
    assert env.terminal_reward(s1, ans0) == 1
    assert env.terminal_reward(s1, ans1) == -1
    with pytest.raises(NotTerminal):
        env.terminal_reward(s1, add2)


def test_reward_total_on_reachable_states():
    """Every reachable state x terminal action yields a reward in {-1, +1}."""
    cfg = EnvConfig(add_consts=(1, -1), mul_consts=(2,), max_depth=4)
    env = Env(cfg)
    q = Question(id=3, start=2, chain=(0, 2), truth=6, difficulty="easy")
    env.register([q])
    terminals = [a for a in env.vocab if a.kind == TERMINAL]
    ops = [a for a in env.vocab if a.kind == INTERMEDIATE]
    frontier = [env.initial_state(q)]
    seen = 0
    while frontier:
        state = frontier.pop()
        if state.depth >= cfg.max_depth:
            continue
        if state.depth >= 1:
            for t in terminals:
                assert env.terminal_reward(state, t) in (-1, 1)
                seen += 1
        frontier.extend(env.transition(state, op) for op in ops)
    assert seen > 0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**20), walk=st.integers(0, 2**20))
def test_replay_matches_stepwise_walk(seed, walk):
    questions = gen_dataset(seed=seed % 50, n=3, difficulty="medium")
    env = Env(questions=questions)
    rng = np.random.Generator(np.random.PCG64(walk))
    q = questions[int(rng.integers(len(questions)))]
    state = env.initial_state(q)
    for _ in range(int(rng.integers(1, env.config.max_depth + 1))):
        acts = env.legal_actions(state)
        state = env.transition(state, acts[int(rng.integers(len(acts)))])
        if env.vocab[state.steps[-1]].kind == TERMINAL:
            break
    again = env.replay(q, state.steps)
    assert again == state


def test_solution_reward_and_build_solution():
    env = Env()
    q = Question(id=9, start=1, chain=(0,), truth=2, difficulty="easy")
    env.register([q])
    add1 = env.vocab[0]
    ans0 = next(a for a in env.vocab if a.name == "ans+0")
    ans2 = next(a for a in env.vocab if a.name == "ans+2")
    assert env.solution_reward(q, (add1.id, ans0.id)) == 1
    assert env.solution_reward(q, (add1.id, ans2.id)) == -1
    assert env.solution_reward(q, (add1.id,)) is None
    sol = env.build_solution(q, (add1.id, ans0.id))
    assert sol.correct and sol.predicted == 2
    unfinished = env.build_solution(q, (add1.id,))
    assert not unfinished.correct and unfinished.predicted is None


def test_build_solution_replays_once(monkeypatch):
    """A finished episode's prefix is replayed once for both its reward
    and its proposed answer."""
    env = Env()
    q = Question(id=9, start=1, chain=(0,), truth=2, difficulty="easy")
    env.register([q])
    calls = []
    replay = Env.replay

    def counting(self, question, steps):
        calls.append(tuple(steps))
        return replay(self, question, steps)

    monkeypatch.setattr(Env, "replay", counting)
    ans0 = next(a for a in env.vocab if a.name == "ans+0")
    for steps in [(0, ans0.id), (0, ans0.id + 1), (0, 1, ans0.id)]:
        calls.clear()
        env.build_solution(q, steps)
        assert calls == [steps[:-1]], steps


def test_out_of_vocabulary_ids_are_illegal():
    """An id outside [0, len(vocab)) is refused, never read from the end
    of the vocabulary (-1 used to replay as the last answer action)."""
    env = Env()
    q = Question(id=9, start=1, chain=(0,), truth=2, difficulty="easy")
    env.register([q])
    n = len(env.vocab)
    for steps in [(0, -1), (0, n), (-1,), (-n - 1,), (-1, 0), (0, -1, 0)]:
        with pytest.raises(IllegalAction):
            env.replay(q, steps)
        with pytest.raises(IllegalAction):
            env.solution_reward(q, steps)
        with pytest.raises(IllegalAction):
            env.build_solution(q, steps)
    with pytest.raises(IllegalAction):
        env.action(n)
    assert env.action(n - 1) is env.vocab[-1]


def test_dataset_serialization_round_trip(tmp_path):
    questions = gen_dataset(seed=11, n=40, difficulty="hard")
    path = tmp_path / "questions.jsonl"
    save_dataset(questions, path)
    assert load_dataset(path) == questions
    # stable field order and one object per line
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 40
    first = json.loads(lines[0])
    assert list(first) == ["id", "spec", "truth", "difficulty"]
    assert question_from_record(question_to_record(questions[0])) == questions[0]


def test_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(add_consts=(), mul_consts=())
    with pytest.raises(ValueError):
        EnvConfig(max_depth=1)
    with pytest.raises(ValueError):
        EnvConfig(start_lo=5, start_hi=4)
    with pytest.raises(ValueError):
        gen_dataset(seed=1, n=2, difficulty="easy",
                    config=EnvConfig(answer_offsets=(1, -1)))


@pytest.mark.parametrize("start, chain", [
    (0, (0,)),                 # start below start_lo
    (10, (0,)),                # start above start_hi
    (3, ()),                   # empty chain
    (3, (0,) * 8),             # chain as long as max_depth
    (3, (0, 6)),               # an answer id in the chain
    (3, (0, 11)),              # an id past the vocabulary
    (3, (-1,)),                # a negative id
], ids=["start_low", "start_high", "chain_empty", "chain_too_long",
        "terminal_in_chain", "id_past_vocab", "negative_id"])
def test_register_refuses_out_of_range_questions(start, chain):
    """A question outside the Env's bounds would get features that spill
    into other blocks (a start of 0 lands in the last-action block, a
    chain of max_depth ops in the histogram), so registering it raises,
    naming the question, and registers nothing."""
    good = Question(id=1, start=3, chain=(0, 5), truth=8, difficulty="easy")
    bad = Question(id=4242, start=start, chain=chain, truth=0,
                   difficulty="easy")
    env = Env()
    with pytest.raises(envmod.InvalidQuestion, match="question 4242"):
        env.register([good, bad])
    with pytest.raises(KeyError):
        env.question(good.id)
    with pytest.raises(ValueError, match="question 4242"):
        Env(questions=[bad])
    env.register([good])
    assert env.question(good.id) == good


def test_register_accepts_the_bounds():
    config = EnvConfig()
    edge = [Question(0, config.start_lo, (0,), 0, "easy"),
            Question(1, config.start_hi, (5,) * (config.max_depth - 1), 0,
                     "hard")]
    env = Env(config, edge + gen_dataset(3, 30, "hard"))
    assert env.question(1) == edge[1]
