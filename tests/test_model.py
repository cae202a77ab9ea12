"""Policy-value model tests: closed forms, sampling statistics, and
finite-difference verification of every analytic gradient path."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svpo import model as model_module
from svpo.env import DIFFICULTY_STEPS, TERMINAL, Env, Question, gen_dataset
from svpo.model import (
    SCRATCH_HI, SCRATCH_LO, Featurizer, Model, Gradients, IllegalPrefix,
    Uint32Stream, params_from_record, params_to_record, sample_distinct,
    spawn_generator, temper,
)
from svpo.model import draw as draw_pick
from svpo.train import Checkpoint, load_checkpoint, save_checkpoint

from oracles import (
    action_distribution, as_generator, choice_sample_distinct, draw,
    fd_relative_error, reference_features, sample_step, scripted_params,
    step_logprob, value_bump_params,
)


@pytest.fixture(scope="module")
def setup():
    questions = gen_dataset(seed=5, n=20, difficulty="medium")
    env = Env(questions=questions)
    return env, Model(env), questions


def random_prefix(env, question, rng, allow_terminal=True):
    state = env.initial_state(question)
    steps = []
    for _ in range(int(rng.integers(1, env.config.max_depth))):
        acts = env.legal_actions(state)
        if not allow_terminal:
            acts = [a for a in acts if a.kind == "intermediate"]
        a = acts[int(rng.integers(len(acts)))]
        steps.append(a.id)
        state = env.transition(state, a)
        if a.kind == "terminal":
            break
    return tuple(steps), state


def test_zero_params_uniform_logprobs(setup):
    env, model, questions = setup
    params = model.zeros_params()
    q = questions[0]
    s0 = env.initial_state(q)
    k0 = len(env.legal_actions(s0))
    assert step_logprob(model, params, s0, env.legal_actions(s0)[0].id) == pytest.approx(math.log(1 / k0), abs=1e-12)
    s1 = env.transition(s0, env.legal_actions(s0)[0])
    k1 = len(env.legal_actions(s1))
    for a in env.legal_actions(s1):
        assert step_logprob(model, params, s1, a.id) == pytest.approx(math.log(1 / k1), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_step_distribution_normalizes(seed):
    questions = gen_dataset(seed=seed % 17, n=2, difficulty="medium")
    env = Env(questions=questions)
    model = Model(env)
    rng = np.random.Generator(np.random.PCG64(seed))
    params = model.init_params(seed=seed, scale=1.0)
    q = questions[int(rng.integers(len(questions)))]
    _, state = random_prefix(env, q, rng, allow_terminal=False)
    legal, logprobs, _, _ = model.legal_logprobs(params, state)
    assert abs(np.exp(logprobs).sum() - 1.0) < 1e-12
    assert np.all(logprobs <= 0.0)


def test_dominant_logit_probability(setup):
    env, model, questions = setup
    q = questions[0]
    s0 = env.initial_state(q)
    target = env.legal_actions(s0)[2]
    params = scripted_params(model, {0: target.id})
    legal, probs = action_distribution(model, params, s0)
    k = len(legal)
    idx = [a.id for a in legal].index(target.id)
    expected = math.exp(10.0) / (math.exp(10.0) + (k - 1))
    assert probs[idx] == pytest.approx(expected, rel=1e-9)
    assert probs[idx] > 0.999


def test_seq_logprob_additivity(setup):
    env, model, questions = setup
    rng = np.random.Generator(np.random.PCG64(42))
    for trial in range(20):
        q = questions[int(rng.integers(len(questions)))]
        params = model.init_params(seed=trial, scale=0.5)
        steps, _ = random_prefix(env, q, rng)
        total = model.seq_logprob(params, q, steps)
        state = env.initial_state(q)
        by_hand = 0.0
        for aid in steps:
            by_hand += step_logprob(model, params, state, aid)
            state = env.transition(state, env.vocab[aid])
        assert total == pytest.approx(by_hand, abs=1e-12)
    assert model.seq_logprob(model.zeros_params(), questions[0], ()) == 0.0


def test_seq_logprob_rejects_illegal_prefix(setup):
    env, model, questions = setup
    params = model.zeros_params()
    ans0 = next(a for a in env.vocab if a.name == "ans+0")
    with pytest.raises(IllegalPrefix):
        model.seq_logprob(params, questions[0], (ans0.id,))  # answer at depth 0
    add = env.vocab[0]
    too_long = (add.id,) * (env.config.max_depth + 1)
    with pytest.raises(IllegalPrefix):
        model.seq_logprob(params, questions[0], too_long)


def test_value_bounded_and_zero_at_origin(setup):
    env, model, questions = setup
    assert model.value(model.zeros_params(), env.initial_state(questions[0])) == 0.0
    rng = np.random.Generator(np.random.PCG64(3))
    for trial in range(50):
        # moderate scale: extreme params saturate tanh to 1.0 in float64,
        # which is an artifact of rounding, not of the open-interval head
        params = model.init_params(seed=trial, scale=0.5)
        q = questions[int(rng.integers(len(questions)))]
        _, state = random_prefix(env, q, rng)
        v = model.value(params, state)
        assert -1.0 < v < 1.0


def test_value_head_tanh_closed_form(setup):
    """Pre-activation 2.0 routed through the bias feature: V = tanh(2.0)."""
    env, model, questions = setup
    params = value_bump_params(model, model.featurizer.block("bias"), pre=2.0)
    state = env.initial_state(questions[0])
    assert model.value(params, state) == pytest.approx(0.9640275800758169, abs=1e-4)


def test_value_grad_at_zero_params_matches_hidden_activation(setup):
    env, model, questions = setup
    params = model.zeros_params()
    state = env.initial_state(questions[0])
    v, grad = model.value_grad(params, state)
    hidden = np.tanh(model.featurizer.features(questions[0], state) @ params.w_shared)
    assert v == 0.0
    # dV/dw_value = hidden * (1 - tanh(0)^2) = hidden (all zeros here)
    assert np.array_equal(grad.w_value, hidden)
    assert not grad.w_value.any()


def test_sampling_near_zero_temperature_is_argmax(setup):
    env, model, questions = setup
    rng = np.random.Generator(np.random.PCG64(9))
    for trial in range(20):
        params = model.init_params(seed=100 + trial, scale=1.0)
        q = questions[int(rng.integers(len(questions)))]
        _, state = random_prefix(env, q, rng, allow_terminal=False)
        legal, probs = action_distribution(model, params, state)
        best = legal[int(np.argmax(probs))].id
        for draw in range(5):
            got = sample_step(model, params, state, 1e-8,
                              spawn_generator(trial, draw))
            assert got == best


def test_sampling_uniform_frequencies(setup):
    env, model, questions = setup
    params = model.zeros_params()
    q = questions[0]
    s0 = env.initial_state(q)
    k = len(env.legal_actions(s0))
    n = 100_000
    rng = spawn_generator(2024)
    counts = np.zeros(len(env.vocab))
    for _ in range(n):
        counts[sample_step(model, params, s0, 1.0, rng)] += 1
    sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
    legal_ids = [a.id for a in env.legal_actions(s0)]
    for aid in legal_ids:
        assert abs(counts[aid] - n / k) <= 3 * sigma
    assert counts.sum() == n and counts[[a.id for a in env.vocab if a.id not in legal_ids]].sum() == 0


def test_sampling_deterministic_given_seed(setup):
    env, model, questions = setup
    params = model.init_params(seed=1, scale=0.5)
    state = env.initial_state(questions[1])
    a = [sample_step(model, params, state, 0.8, 777) for _ in range(10)]
    b = [sample_step(model, params, state, 0.8, 777) for _ in range(10)]
    assert a == b


def test_temperature_validation(setup):
    env, model, questions = setup
    with pytest.raises(ValueError):
        sample_step(model, model.zeros_params(),
                    env.initial_state(questions[0]), 0.0, 1)


_WEIGHT = st.one_of(st.floats(0.0, 1.0), st.floats(1e-300, 1e-12),
                    st.just(0.0))


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(_WEIGHT, min_size=1, max_size=11),
       one_hot=st.booleans(), hot=st.integers(0, 10),
       seed=st.integers(0, 2**63))
def test_draw_matches_generator_choice(weights, one_hot, hot, seed):
    """draw is choice's algorithm: same index, same generator state after."""
    w = np.array(weights)
    if one_hot or w.sum() == 0:
        w = np.zeros(len(w))
        w[hot % len(w)] = 1.0
    p = w / w.sum()
    mine, theirs = spawn_generator(seed), spawn_generator(seed)
    for _ in range(3):
        assert draw(p, mine) == int(theirs.choice(len(p), p=p))
        assert mine.bit_generator.state == theirs.bit_generator.state


_ANY_WEIGHT = st.one_of(_WEIGHT, st.floats(5e-324, 1e-308))


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(_ANY_WEIGHT, min_size=1, max_size=11),
       one_hot=st.booleans(), hot=st.integers(0, 10),
       temperature=st.one_of(st.none(), st.floats(1e-3, 2.0)),
       k=st.integers(1, 12), seed=st.integers(0, 2**63))
def test_sample_distinct_matches_generator_choice(weights, one_hot, hot,
                                                  temperature, k, seed):
    """Given min(k, n) uniforms of a stream, the picks of one choice
    call per pick on the same stream, which it leaves where drawing the
    uniforms left it; on raw weights (zero, tiny and subnormal ones included) and on
    weights tempered down to 1e-3, given as an array or as a list. The
    first pick is `model.draw`'s on the first uniform."""
    w = np.array(weights)
    if one_hot or w.sum() == 0:
        w = np.zeros(len(w))
        w[hot % len(w)] = 1.0
    if temperature is not None:
        with np.errstate(divide="ignore"):
            w = temper(np.log(w), temperature)
    mine, theirs = spawn_generator(seed), spawn_generator(seed)
    for _ in range(3):
        want = choice_sample_distinct(w, k, theirs)
        uniforms = mine.random(min(k, len(w))).tolist()
        assert sample_distinct(w, uniforms) == want
        assert sample_distinct(w.tolist(), uniforms) == want
        assert draw_pick(w, uniforms[0]) == draw_pick(w.tolist(),
                                                      uniforms[0]) == want[0]
        assert mine.bit_generator.state == theirs.bit_generator.state


class _Uniforms:
    """Generator stand-in yielding fixed uniforms one at a time."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def _draw_one_by_one(weights, k, rng):
    """sample_distinct as one `draw` per pick over the weights left."""
    remaining = list(range(len(weights)))
    picks = []
    for _ in range(min(k, len(remaining))):
        w = weights[remaining]
        total = w.sum()
        p = w / total if total > 0 else np.full(len(w), 1.0 / len(w))
        picks.append(remaining.pop(draw(p, rng)))
    return picks


@pytest.mark.parametrize("weights", [[0.1, 0.2, 0.7], [0.3] * 10 + [1e-9],
                                     [1.0, 0.0, 0.0, 2.0], [1e-310, 3e-310],
                                     [0.0, 0.0, 0.0]])
def test_sample_distinct_falls_back_on_cdf_boundaries(weights, monkeypatch):
    """Uniforms on, just below and just above a boundary of `draw`'s cdf
    are picked in `draw`'s arithmetic, whatever the Python-float cdf
    says; so is every uniform of a zero or subnormal mass. The same
    holds for `model.draw`, the pick routine inside sample_distinct."""
    w = np.array(weights)
    total = w.sum()
    p = w / total if total > 0 else np.full(len(w), 1.0 / len(w))
    cdf = p.cumsum()
    cdf /= cdf[-1]
    uniforms = [v for b in cdf[:-1]
                for v in (b, np.nextafter(b, 0.0), np.nextafter(b, 1.0))]
    if total < np.finfo(float).tiny:
        uniforms.append(0.5)
    want = [_draw_one_by_one(w, 1, _Uniforms([u])) for u in uniforms]
    fallbacks = []
    index = model_module._index

    def counted(probs, u):
        fallbacks.append(u)
        return index(probs, u)

    monkeypatch.setattr(model_module, "_index", counted)
    for u, picks in zip(uniforms, want):
        fallbacks.clear()
        assert sample_distinct(w, [u]) == picks
        assert fallbacks == [u]
        assert [draw_pick(w, u), draw_pick(w.tolist(), u)] == picks * 2
        assert fallbacks == [u] * 3


@settings(max_examples=200, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)),
                      min_size=1, max_size=40),
       seed=st.integers(0, 2**63))
def test_uint32_stream_distinct_matches_generator_choice(calls, seed):
    """A chain of `Uint32Stream.distinct(n, k)` calls, n from 1 to 60 and
    k from 1 to n, picks what `Generator.choice(n, size=k, replace=False)`
    picks on a twin generator, call for call, and leaves the generator's
    128-bit state where choice leaves the twin's (the half of a 64-bit
    output not yet used is kept by the reader, not the generator)."""
    mine, theirs = spawn_generator(seed), spawn_generator(seed)
    stream = Uint32Stream(mine)
    for n, k in calls:
        k = 1 + (k - 1) % n
        want = theirs.choice(n, size=k, replace=False).tolist()
        assert stream.distinct(n, k) == want
        assert (mine.bit_generator.state["state"]
                == theirs.bit_generator.state["state"])


@pytest.mark.parametrize("n, k", [(10_001, 201), (10_001, 10_001),
                                  (25_000, 501), (10_001, 200), (30_000, 7),
                                  (3_000_000_000, 2)])
def test_uint32_stream_distinct_on_large_ranges(n, k):
    """For n above 10 000 and k above n // 50, choice shuffles the tail of
    range(n), and below that fraction it runs Floyd's algorithm; the
    reader does the same, and a small draw after it still agrees. At n =
    3e9 Lemire's method rejects about 30% of its words, a path small n
    almost never takes."""
    mine, theirs = spawn_generator(n, k), spawn_generator(n, k)
    stream = Uint32Stream(mine)
    for _ in range(2 if n < 2**31 else 30):
        assert (stream.distinct(n, k)
                == theirs.choice(n, size=k, replace=False).tolist())
    assert stream.distinct(5, 2) == theirs.choice(5, 2, replace=False).tolist()


def test_uint32_stream_refuses_impossible_draws():
    stream = Uint32Stream(spawn_generator(0))
    for n, k in [(3, 4), (0, 1), (5, -1), (2**32 + 1, 1)]:
        with pytest.raises(ValueError):
            stream.distinct(n, k)


def test_sample_distinct_underflow_is_uniform():
    rng = spawn_generator(4)
    counts = np.zeros(4)
    for _ in range(3000):
        picks = sample_distinct(np.array([1.0, 0.0, 0.0, 0.0]),
                                rng.random(2).tolist())
        assert picks[0] == 0 and len(set(picks)) == 2
        counts[picks[1]] += 1
    assert counts[0] == 0 and counts[1:].min() > 900
    assert sorted(sample_distinct(np.ones(3), rng.random(3).tolist())) == \
        [0, 1, 2]


def test_temper_is_shift_safe():
    lp = np.log(np.array([0.7, 0.2, 0.1]))
    p = temper(lp, 1.0)
    assert np.allclose(p, [0.7, 0.2, 0.1], atol=1e-12)
    p_cold = temper(lp, 0.05)
    assert p_cold[0] > 0.999999


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.sampled_from([6, 11]),
       with_inf=st.booleans(), temperature=st.floats(1e-3, 2.0))
def test_temper_of_stacked_rows_is_each_rows_temper(data, width, with_inf,
                                                     temperature):
    """temper over a stack of rows gives every row the bits of its own
    temper call, -inf entries included (SBS tempers a level's beams in
    one call)."""
    entry = st.floats(-60.0, 0.0)
    if with_inf:
        entry = st.one_of(entry, st.just(-np.inf))
    rows = data.draw(st.lists(
        st.lists(entry, min_size=width, max_size=width).filter(
            lambda row: max(row) > -np.inf),
        min_size=1, max_size=5))
    stacked = temper(np.array(rows), temperature)
    for row, got in zip(rows, stacked):
        assert got.tobytes() == temper(np.array(row), temperature).tobytes()


@pytest.mark.parametrize("entropy", [
    (0,), (2**32 - 1,), (2**32,), (2**64 + 3,), (0x5B5, 1, 2**32, 0, 7),
    (2**64 + 3, 2**40), (5, 2**32 - 1, 2**96 + 2**33 + 1, 0),
])
def test_spawn_generator_is_the_seed_sequence_stream(entropy):
    """spawn_generator seeds the stream numpy's SeedSequence does for
    the integers, for values of one to four 32-bit words."""
    theirs = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy)))
    assert spawn_generator(*entropy).random(8).tolist() == \
        theirs.random(8).tolist()


def test_spawn_generator_refuses_negative_entropy():
    with pytest.raises(ValueError):
        np.random.SeedSequence((3, -1))
    with pytest.raises(ValueError):
        spawn_generator(3, -1)


def test_seq_logprob_gradient_finite_difference(setup):
    env, model, questions = setup
    rng = np.random.Generator(np.random.PCG64(11))
    worst = 0.0
    for trial in range(30):
        params = model.init_params(seed=500 + trial, scale=0.8)
        q = questions[int(rng.integers(len(questions)))]
        steps, _ = random_prefix(env, q, rng)
        rows = model.prefix_rows([q.id], [steps])
        _, _, grad = model.seq_logprob_grad(params, rows, [q.id], [steps],
                                            (1.0, 0.0))
        err = fd_relative_error(
            lambda p, q=q, steps=steps: model.seq_logprob(p, q, steps),
            params, grad, rng)
        worst = max(worst, err)
    assert worst < 1e-4


def test_value_gradient_finite_difference(setup):
    env, model, questions = setup
    rng = np.random.Generator(np.random.PCG64(13))
    worst = 0.0
    for trial in range(30):
        # keep the trunk out of saturation: there the analytic gradient is
        # ~1e-8 and central differences at eps=1e-5 cannot resolve it
        params = model.init_params(seed=900 + trial, scale=0.4)
        q = questions[int(rng.integers(len(questions)))]
        _, state = random_prefix(env, q, rng)
        _, grad = model.value_grad(params, state)
        err = fd_relative_error(
            lambda p, state=state: model.value(p, state), params, grad, rng)
        worst = max(worst, err)
    assert worst < 1e-4


def test_policy_grad_invariant_to_uniform_logit_shift(setup):
    """Adding a constant to every legal logit leaves seq_logprob unchanged,
    so the policy-head gradient must sum to zero across vocabulary columns."""
    env, model, questions = setup
    rng = np.random.Generator(np.random.PCG64(17))
    for trial in range(10):
        params = model.init_params(seed=40 + trial, scale=1.0)
        q = questions[int(rng.integers(len(questions)))]
        steps, _ = random_prefix(env, q, rng)
        rows = model.prefix_rows([q.id], [steps])
        _, _, grad = model.seq_logprob_grad(params, rows, [q.id], [steps],
                                            (1.0, 0.0))
        assert np.allclose(grad.w_policy.sum(axis=1), 0.0, atol=1e-12)


def test_grads_logprob_and_value_consistent(setup):
    env, model, questions = setup
    rng = np.random.Generator(np.random.PCG64(19))
    q = questions[2]
    params = model.init_params(seed=77, scale=0.6)
    steps, state = random_prefix(env, q, rng)
    ev = model.grads_logprob_and_value(params, q, steps)
    rows = model.prefix_rows([q.id], [steps])
    (lp,), _, glp = model.seq_logprob_grad(params, rows, [q.id], [steps],
                                           (1.0, 0.0))
    v, gv = model.value_grad(params, state)
    assert ev.logprob == lp and ev.value == v
    assert np.array_equal(ev.grad_logprob.w_shared, glp.w_shared)
    assert np.array_equal(ev.grad_value.w_value, gv.w_value)


def test_gradient_norm(setup):
    env, model, questions = setup
    params = model.init_params(seed=8, scale=0.3)
    qids, prefixes = [questions[0].id], [(0,)]
    _, _, grad = model.seq_logprob_grad(
        params, model.prefix_rows(qids, prefixes), qids, prefixes, (1.0, 0.0))
    flat = np.concatenate([grad.w_shared.ravel(), grad.w_policy.ravel(),
                           grad.w_value.ravel()])
    assert grad.norm() == pytest.approx(np.linalg.norm(flat), rel=1e-12)
    tripled = Gradients(3 * grad.w_shared, 3 * grad.w_policy,
                        3 * grad.w_value)
    assert tripled.norm() == pytest.approx(3 * grad.norm(), rel=1e-12)


def test_checkpoint_round_trip_bit_exact(setup, tmp_path):
    env, model, questions = setup
    params = model.init_params(seed=123, scale=0.7)
    path = tmp_path / "ckpt.json"
    save_checkpoint(Checkpoint(params, params.copy(), 0, {}), path)
    loaded = load_checkpoint(path)
    for got in (loaded.params, loaded.ref_params):
        assert np.array_equal(got.w_shared, params.w_shared)
        assert np.array_equal(got.w_policy, params.w_policy)
        assert np.array_equal(got.w_value, params.w_value)
    # a second save produces identical bytes
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_shape_header_validated(setup):
    env, model, questions = setup
    rec = params_to_record(model.init_params(seed=1))
    rec["h"] += 1
    with pytest.raises(ValueError):
        params_from_record(rec)


def test_featurizer_deterministic(setup):
    env, model, questions = setup
    q = questions[0]
    s = env.initial_state(q)
    fz = Featurizer(env.config)
    a = fz.features(q, s)
    assert np.array_equal(fz.features(q, s), a)
    fresh = Featurizer(env.config)
    assert np.array_equal(fresh.features(q, s), a)
    assert fz.dim == model.d


def test_featurizer_distinguishes_scratch_and_depth(setup):
    env, model, questions = setup
    q = questions[0]
    s0 = env.initial_state(q)
    s1 = env.transition(s0, env.vocab[0])
    fz = model.featurizer
    assert not np.array_equal(fz.features(q, s0), fz.features(q, s1))


@settings(max_examples=60, deadline=None)
@given(difficulty=st.sampled_from(sorted(DIFFICULTY_STEPS)),
       seed=st.integers(0, 2**16),
       walks=st.lists(st.tuples(st.integers(0, 7),
                                st.lists(st.integers(0, 10), max_size=8)),
                      min_size=1, max_size=6),
       scratches=st.lists(st.tuples(st.integers(0, 50),
                                    st.integers(-200, 300)), max_size=4))
def test_featurizer_rows_match_reference(difficulty, seed, walks, scratches):
    """Featurizer.rows equals the reference rows bit for bit on mixed
    batches of reachable states of several questions, and on scratch
    values below SCRATCH_LO, above SCRATCH_HI and odd and negative; so
    does a second call, which reads the kept base rows, and each
    one-row `features` call."""
    questions = gen_dataset(seed, 8, difficulty)
    env = Env(questions=questions)
    fz = Featurizer(env.config)
    states = []
    for qi, walk in walks:
        state = env.initial_state(questions[qi])
        states.append(state)
        for pick in walk[:env.config.max_depth]:
            legal = env.legal_actions(state)
            action = legal[pick % len(legal)]
            state = env.transition(state, action)
            states.append(state)
            if action.kind == TERMINAL:
                break
    fixed = [SCRATCH_LO - 1, SCRATCH_LO, SCRATCH_HI, SCRATCH_HI + 1, -7]
    for at, scratch in scratches + list(enumerate(fixed)):
        states.append(states[at % len(states)]._replace(scratch=scratch))
    want = np.array([reference_features(fz, env.question(s.question_id), s)
                     for s in states])
    assert np.array_equal(fz.rows(env, states), want)
    assert np.array_equal(fz.rows(env, states[::-1]), want[::-1])
    for s, row in zip(states, want):
        assert np.array_equal(fz.features(env.question(s.question_id), s), row)
    assert fz.rows(env, []).shape == (0, fz.dim)


def test_policy_value_is_the_masked_log_softmax_of_logits(setup):
    """policy_value's log-probs are `_log_softmax` of `logits` with the
    depth-0 rows masked, bit for bit, on a depth-0 and a deeper state;
    hidden activations and features are the same arrays, and an empty
    state list gives empty arrays."""
    env, model, questions = setup
    params = model.init_params(seed=4, scale=0.5)
    state = env.initial_state(questions[0])
    states = [state, env.transition(state, env.vocab[1])]
    logits, hidden, x = model.logits(params, states)
    want = model.policy_value(params, states)
    logp = model._log_softmax(logits, [0])
    for got, expect in zip((logp, hidden, x), (want[0], want[2], want[3])):
        assert np.array_equal(got, expect)
    assert np.isneginf(logp[0, model._answer_ids]).all()
    assert np.isfinite(logp[1]).all()
    empty = model.logits(params, [])
    assert [a.shape for a in empty] == [(0, model.vocab_size),
                                        (0, params.h), (0, model.d)]


def test_reregistered_question_gets_its_own_rows():
    """Base rows are kept by question id; a question registered again
    under the same id with another spec gets rows of its own, and the
    old Question object still gets its old row."""
    env = Env()
    old = Question(id=9, start=3, chain=(0, 1), truth=6, difficulty="easy")
    env.register([old])
    fz = Featurizer(env.config)
    state = env.initial_state(old)
    before = fz.rows(env, [state])
    new = Question(id=9, start=7, chain=(5,), truth=14, difficulty="easy")
    env.register([new])
    after = fz.rows(env, [state, env.initial_state(new)])
    assert np.array_equal(after[0], reference_features(fz, new, state))
    assert np.array_equal(after[1], reference_features(
        fz, new, env.initial_state(new)))
    assert not np.array_equal(after[0], before[0])
    assert np.array_equal(fz.features(old, state), before[0])


def test_prefix_rows_featurize_each_distinct_state_once(setup, monkeypatch):
    env, model, questions = setup
    rng = np.random.Generator(np.random.PCG64(23))
    qids, prefixes = [], []
    for q in questions[:4]:
        steps, _ = random_prefix(env, q, rng)
        # the full prefix twice, a shared head and the empty prefix
        for t in (len(steps), len(steps) // 2, 0, len(steps)):
            qids.append(q.id)
            prefixes.append(steps[:t])
    distinct = {(qid, steps[:t]) for qid, steps in zip(qids, prefixes)
                for t in range(len(steps) + 1)}
    calls = []
    featurize = model.featurizer.rows

    def counted(env, states):
        calls.extend((state.question_id, state.steps) for state in states)
        return featurize(env, states)

    monkeypatch.setattr(model.featurizer, "rows", counted)
    rows = model.prefix_rows(qids, prefixes)
    assert len(calls) == len(set(calls)) == len(distinct) == len(rows.x)
    assert set(calls) == distinct
    params = model.init_params(seed=3, scale=0.5)
    logprobs, values, _ = model.seq_logprob_grad(params, rows, qids, prefixes)
    for i, (qid, steps) in enumerate(zip(qids, prefixes)):
        alone = model.prefix_rows([qid], [steps])
        assert np.array_equal(rows.x[rows.paths[qid, steps]],
                              alone.x[alone.paths[qid, steps]])
        (lp,), (v,), _ = model.seq_logprob_grad(params, alone, [qid], [steps])
        assert logprobs[i] == pytest.approx(lp, rel=1e-12, abs=1e-15)
        assert values[i] == pytest.approx(v, rel=1e-12, abs=1e-15)


def test_as_generator_accepts_both():
    g = as_generator(5)
    assert isinstance(g, np.random.Generator)
    assert as_generator(g) is g
