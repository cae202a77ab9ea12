"""Independent check machinery shared across test modules.

Everything here is deliberately written against the public contracts only
(scalar loss evaluations, feature block offsets, dumped JSON, one-prefix
model helpers), not against the implementations it checks.
"""
from __future__ import annotations

import math

import numpy as np

from svpo import env as envmod, infer, mcts
from svpo.env import (
    DIFFICULTY_STEPS, INTERMEDIATE, TERMINAL, EnvConfig, IllegalAction,
    Question, compute_truth, vocabulary,
)
from svpo.model import (
    SCRATCH_HI, SCRATCH_LO, Featurizer, Gradients, Model, PolicyValueParams,
    spawn_generator, temper,
)
from svpo.train import EmptyBatch, LossBreakdown

FD_EPS = 1e-5


# -- flat parameter vectors and one-step sampling ----------------------------

def params_to_vec(params: PolicyValueParams) -> np.ndarray:
    return np.concatenate([params.w_shared.ravel(), params.w_policy.ravel(),
                           params.w_value.ravel()])


def vec_to_params(vec: np.ndarray, like: PolicyValueParams) -> PolicyValueParams:
    a = like.w_shared.size
    b = like.w_policy.size
    return PolicyValueParams(
        w_shared=vec[:a].reshape(like.w_shared.shape).copy(),
        w_policy=vec[a:a + b].reshape(like.w_policy.shape).copy(),
        w_value=vec[a + b:].copy())


def grads_to_vec(grad: Gradients) -> np.ndarray:
    return np.concatenate([grad.w_shared.ravel(), grad.w_policy.ravel(),
                           grad.w_value.ravel()])


def zero_grad(params: PolicyValueParams) -> Gradients:
    return Gradients(np.zeros_like(params.w_shared),
                     np.zeros_like(params.w_policy),
                     np.zeros_like(params.w_value))


def add_scaled(acc: Gradients, grad: Gradients, scale: float = 1.0) -> None:
    """acc += scale * grad, in place."""
    acc.w_shared += scale * grad.w_shared
    acc.w_policy += scale * grad.w_policy
    acc.w_value += scale * grad.w_value


def draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn from the distribution `probs` by the algorithm
    `rng.choice(len(probs), p=probs)` runs (the cdf divided by its last
    entry, searched to the right for one uniform), so it returns the same
    index and leaves `rng` in the same state; `probs` must be a float
    array with a positive sum."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng)))


def sample_step(model: Model, params: PolicyValueParams, state,
                temperature: float, rng) -> int:
    """Sample a legal action id at the given temperature (> 0)."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    legal, logprobs, _, _ = model.legal_logprobs(params, state)
    return legal[draw(temper(logprobs, temperature), as_generator(rng))].id


def numeric_grad_coords(f, params: PolicyValueParams, coords,
                        eps: float = FD_EPS) -> np.ndarray:
    """Central finite differences of scalar f(params) at chosen flat coords."""
    base = params_to_vec(params)
    out = np.empty(len(coords))
    for k, i in enumerate(coords):
        plus = base.copy()
        plus[i] += eps
        minus = base.copy()
        minus[i] -= eps
        out[k] = (f(vec_to_params(plus, params)) - f(vec_to_params(minus, params))) / (2 * eps)
    return out


def fd_relative_error(f, params: PolicyValueParams, analytic_grad,
                      rng: np.random.Generator, n_coords: int = 20,
                      eps: float = FD_EPS) -> float:
    """Vector relative error between analytic and FD gradients on a random
    coordinate subset. Returns ||a - fd|| / max(||a||, ||fd||, 1e-10)."""
    vec = grads_to_vec(analytic_grad)
    coords = rng.choice(vec.size, size=min(n_coords, vec.size), replace=False)
    fd = numeric_grad_coords(f, params, coords, eps)
    a = vec[coords]
    denom = max(np.linalg.norm(a), np.linalg.norm(fd), 1e-10)
    return float(np.linalg.norm(a - fd) / denom)


def scripted_params(model: Model, script: dict[int, int],
                    gain: float = 25.0, logit: float = 10.0) -> PolicyValueParams:
    """Params whose policy puts a +`logit` logit on script[depth] at each
    scripted depth (all other logits ~0), built by routing the depth
    one-hot through one hidden unit per depth. Needs h >= max scripted
    depth + 1."""
    params = model.zeros_params()
    depth_block = model.featurizer.block("depth")
    for depth, action_id in script.items():
        unit = depth
        params.w_shared[depth_block + depth, unit] = gain
        params.w_policy[unit, action_id] = logit / math.tanh(gain)
    return params


def value_bump_params(model: Model, feature_index: int, unit: int = 0,
                      gain: float = 25.0, pre: float = 3.0) -> PolicyValueParams:
    """Params whose value head fires iff feature `feature_index` is set:
    V = tanh(pre) when set, 0 when clear. Policy logits stay 0."""
    params = model.zeros_params()
    params.w_shared[feature_index, unit] = gain
    params.w_value[unit] = pre / math.tanh(gain)
    return params


# -- one-state policy and search helpers ------------------------------------

def reference_features(featurizer: Featurizer, question, state) -> np.ndarray:
    """One state's feature row, built from zeros entry by entry through
    the public block offsets."""
    x = np.zeros(featurizer.dim)
    block = featurizer.block
    x[block("bias")] = 1.0
    x[block("depth") + state.depth] = 1.0
    if state.steps:
        x[block("last") + state.steps[-1]] = 1.0
    x[block("start") + (question.start - featurizer.config.start_lo)] = 1.0
    x[block("chain_len") + len(question.chain) - 1] = 1.0
    for aid in question.chain:
        x[block("hist") + aid] += 0.5
    s = state.scratch
    if s < SCRATCH_LO:
        x[block("flags")] = 1.0
    elif s > SCRATCH_HI:
        x[block("flags") + 1] = 1.0
    else:
        x[block("bucket") + (s - SCRATCH_LO)] = 1.0
    x[block("scaled")] = s / 16.0
    x[block("parity")] = float(s % 2)
    return x


def step_logprob(model: Model, params: PolicyValueParams, state,
                 action_id: int) -> float:
    """Log-prob of one legal action in one state."""
    legal, logprobs, _, _ = model.legal_logprobs(params, state)
    for i, a in enumerate(legal):
        if a.id == action_id:
            return float(logprobs[i])
    raise IllegalAction(f"action {action_id} not legal at depth {state.depth}")


def action_distribution(model: Model, params: PolicyValueParams, state):
    """(legal actions, untempered probabilities)."""
    legal, logprobs, _, _ = model.legal_logprobs(params, state)
    return legal, np.exp(logprobs)


def puct_score(child, parent_n: int, c_puct: float) -> float:
    """Q plus exploration bonus, the score mcts.select maximises."""
    return child.Q + c_puct * child.prior * math.sqrt(parent_n) / (1 + child.N)


# -- one-at-a-time reference losses -----------------------------------------
# The batched training losses and win rates are checked against these
# loops, which score one pair, solution or value target at a time through
# the model's one-prefix helpers.

def implicit_reward_diff(model: Model, params: PolicyValueParams,
                         ref_params: PolicyValueParams, pair,
                         beta: float) -> float:
    """beta-scaled difference of policy log-ratios between the winner and
    loser prefixes, measured against the frozen reference policy."""
    question = model.env.question(pair.question_id)
    w = model.seq_logprob(params, question, pair.winner) \
        - model.seq_logprob(ref_params, question, pair.winner)
    l = model.seq_logprob(params, question, pair.loser) \
        - model.seq_logprob(ref_params, question, pair.loser)
    return beta * (w - l)


def value_diff(model: Model, params: PolicyValueParams, pair) -> float:
    """Explicit value gap between the winner and loser end states."""
    question = model.env.question(pair.question_id)
    v_w = model.value(params, model.env.replay(question, pair.winner))
    v_l = model.value(params, model.env.replay(question, pair.loser))
    return v_w - v_l


def max_abs_implicit_diff(model: Model, params: PolicyValueParams,
                          ref_params: PolicyValueParams, pairs,
                          beta: float) -> float:
    return max(abs(implicit_reward_diff(model, params, ref_params, p, beta))
               for p in pairs)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def svpo_pair_terms(model: Model, params: PolicyValueParams,
                    ref_params: PolicyValueParams, pair, config):
    """Per-pair loss terms and their unweighted analytic gradients.

    Returns (LossBreakdown, {term: Gradients}, implicit difference). sft
    and mse are the pair-derived forms (winner NLL, winner end-state error
    against its stored q); the preference stage weights no value MSE, so
    total leaves mse out."""
    question = model.env.question(pair.question_id)
    w_ev = model.grads_logprob_and_value(params, question, pair.winner)
    l_ev = model.grads_logprob_and_value(params, question, pair.loser)
    ref_w = model.seq_logprob(ref_params, question, pair.winner)
    ref_l = model.seq_logprob(ref_params, question, pair.loser)

    dr_pi = config.beta * ((w_ev.logprob - ref_w) - (l_ev.logprob - ref_l))
    dr_phi = w_ev.value - l_ev.value
    dpo = _softplus(-dr_pi)
    margin = max(0.0, config.gamma - dr_phi)
    sft = -w_ev.logprob
    mse = (w_ev.value - pair.q_w) ** 2
    breakdown = LossBreakdown(
        dpo=dpo, margin=margin, sft=sft, mse=mse,
        total=dpo + config.w_margin * margin + config.w_sft * sft)

    def combo(*parts) -> Gradients:
        g = zero_grad(params)
        for grad, scale in parts:
            add_scaled(g, grad, scale)
        return g

    def from_pi(coef: float) -> Gradients:
        return combo((w_ev.grad_logprob, coef * config.beta),
                     (l_ev.grad_logprob, -coef * config.beta))

    def from_phi(coef: float) -> Gradients:
        return combo((w_ev.grad_value, coef), (l_ev.grad_value, -coef))

    grads = {
        "dpo": from_pi(_sigmoid(dr_pi) - 1.0),
        "margin": from_phi(-1.0 if dr_phi < config.gamma else 0.0),
        "sft": combo((w_ev.grad_logprob, -1.0)),
        "mse": combo((w_ev.grad_value, 2.0 * (w_ev.value - pair.q_w))),
    }
    return breakdown, grads, dr_pi


def svpo_loss(model: Model, params: PolicyValueParams,
              ref_params: PolicyValueParams, pair, config) -> LossBreakdown:
    breakdown, _, _ = svpo_pair_terms(model, params, ref_params, pair, config)
    return breakdown


def solution_nll(model: Model, params: PolicyValueParams,
                 solutions) -> float:
    """Mean negative log-probability of the solutions; 0 for none."""
    sft = 0.0
    for sol in solutions:
        question = model.env.question(sol.question_id)
        sft -= model.seq_logprob(params, question, sol.steps)
    return sft / len(solutions) if solutions else 0.0


def pretrain_loss(model: Model, params: PolicyValueParams, solutions,
                  targets, config) -> LossBreakdown:
    """Mean solution NLL plus weighted mean squared value error."""
    if not solutions and not targets:
        raise EmptyBatch("nothing to pretrain on")
    sft = solution_nll(model, params, solutions)
    mse = 0.0
    for tgt in targets:
        question = model.env.question(tgt.question_id)
        state = model.env.replay(question, tgt.prefix)
        mse += (model.value(params, state) - tgt.target) ** 2
    mse = mse / len(targets) if targets else 0.0
    return LossBreakdown(sft=sft, mse=mse,
                         total=config.w_sft * sft + config.w_mse * mse)


def dataset_grad(model: Model, params: PolicyValueParams, solutions,
                 targets, config) -> Gradients:
    """Gradient of w_sft * mean NLL + w_mse * mean squared value error,
    one solution or value target at a time (w_mse is read only when there
    are targets)."""
    grad = zero_grad(params)
    for sol in solutions:
        question = model.env.question(sol.question_id)
        ev = model.grads_logprob_and_value(params, question, sol.steps)
        add_scaled(grad, ev.grad_logprob, -config.w_sft / len(solutions))
    for tgt in targets:
        question = model.env.question(tgt.question_id)
        v, g = model.value_grad(params, model.env.replay(question, tgt.prefix))
        add_scaled(grad, g, config.w_mse * 2.0 * (v - tgt.target)
                   / len(targets))
    return grad


def svpo_batch_oracle(model: Model, params: PolicyValueParams,
                      ref_params: PolicyValueParams, batch, config,
                      solutions):
    """svpo_batch_grad's (mean terms, gradient, max |implicit diff|), one
    pair at a time; the carried sft term comes from the solutions (zero
    when there are none) and mse stays zero."""
    weights = {"dpo": 1.0, "margin": config.w_margin}
    sums = dict.fromkeys(["dpo", "margin", "sft", "mse"], 0.0)
    grad = zero_grad(params)
    max_abs_dr = 0.0
    for pair in batch:
        breakdown, grads, dr = svpo_pair_terms(model, params, ref_params,
                                               pair, config)
        max_abs_dr = max(max_abs_dr, abs(dr))
        for name, weight in weights.items():
            sums[name] += getattr(breakdown, name) / len(batch)
            add_scaled(grad, grads[name], weight / len(batch))
    sums["sft"] = solution_nll(model, params, solutions)
    add_scaled(grad, dataset_grad(model, params, solutions, [], config))
    return sums, grad, max_abs_dr


def win_rate_oracle(model: Model, params: PolicyValueParams,
                    ref_params: PolicyValueParams, pairs,
                    beta: float) -> tuple[float, float]:
    """(implicit, explicit) win rates, one pair at a time; exact ties earn
    half credit."""
    def credit(diff: float) -> float:
        return 1.0 if diff > 0 else (0.5 if diff == 0 else 0.0)

    implicit = sum(credit(implicit_reward_diff(model, params, ref_params, p,
                                               beta)) for p in pairs)
    explicit = sum(credit(value_diff(model, params, p)) for p in pairs)
    return implicit / len(pairs), explicit / len(pairs)


def mean_over_seeds(per_seed: dict, *path: str) -> float:
    values = []
    for metrics in per_seed.values():
        node = metrics
        for key in path:
            node = node[key]
        values.append(node)
    return sum(values) / len(values)


# -- reference search: Generator.choice draws, one state at a time ----------
# The search samplers draw all uniforms of a call at once, MCTS reuses one
# policy memo per forest, and expansion and beam search evaluate batches of
# states; all must leave every seeded stream as it was when each draw was
# `rng.choice(n, p=p)` and every state was evaluated on its own.

def choice_sample_distinct(weights: np.ndarray, k: int,
                           rng: np.random.Generator) -> list[int]:
    """Distinct indices drawn one by one with `rng.choice`, uniform once
    the remaining mass underflows."""
    remaining = list(range(len(weights)))
    picks = []
    for _ in range(min(k, len(remaining))):
        w = weights[remaining]
        total = w.sum()
        p = w / total if total > 0 else np.full(len(w), 1.0 / len(w))
        picks.append(remaining.pop(int(rng.choice(len(remaining), p=p))))
    return picks


def _temper_probs(probs: np.ndarray, temperature: float) -> np.ndarray:
    z = np.log(np.maximum(probs, 1e-300)) / temperature
    z -= z.max()
    p = np.exp(z)
    return p / p.sum()


def reference_expand(tree, node_id: int, model: Model,
                     params: PolicyValueParams, config,
                     rng: np.random.Generator) -> list[tuple[int, float]]:
    """MCTS expansion with a fresh policy evaluation for the node and for
    every rollout, probabilities tempered in probability space, and
    `rng.choice` draws."""
    env = model.env
    node = tree.nodes[node_id]
    legal, probs = action_distribution(model, params, node.state)
    picks = choice_sample_distinct(_temper_probs(probs, config.temperature),
                                   min(config.n_children, len(legal)), rng)
    results = []
    for idx in picks:
        action = legal[idx]
        child_state = env.transition(node.state, action)
        if action.kind == TERMINAL:
            reward = env.terminal_reward(node.state, action)
            child = tree.add_node(node_id, action.id, child_state,
                                  float(probs[idx]), terminal=True,
                                  reward=reward)
            results.append((child.id, float(reward)))
            continue
        if child_state.depth >= env.config.max_depth:
            child = tree.add_node(node_id, action.id, child_state,
                                  float(probs[idx]), terminal=True, reward=-1)
            results.append((child.id, -1.0))
            continue
        child = tree.add_node(node_id, action.id, child_state,
                              float(probs[idx]))
        r_legal, r_probs = action_distribution(model, params, child_state)
        r_idx = int(rng.choice(len(r_legal),
                               p=_temper_probs(r_probs, config.temperature)))
        r_action = r_legal[r_idx]
        if r_action.kind == TERMINAL:
            reward = env.terminal_reward(child_state, r_action)
            grand = tree.add_node(child.id, r_action.id,
                                  env.transition(child_state, r_action),
                                  float(r_probs[r_idx]), terminal=True,
                                  reward=reward)
            results.append((grand.id, float(reward)))
        else:
            results.append((child.id, 0.0))
    return results


def reference_forest(model: Model, question, params: PolicyValueParams,
                     config, rng_seed: int):
    """`build_forest` over `reference_expand`: tree t draws from the
    generator seeded by (tree stream, rng_seed, t)."""
    forest = mcts.Forest(question_id=question.id)
    found = set()
    for t in range(config.max_trees):
        rng = spawn_generator(mcts._TREE_STREAM, rng_seed, t)
        tree = mcts.new_tree(model.env, question)
        for _ in range(config.max_simulations):
            leaf_id = mcts.select(tree, config.c_puct)
            leaf = tree.nodes[leaf_id]
            if leaf.terminal:
                updates = [(leaf_id, float(leaf.reward))]
            else:
                updates = reference_expand(tree, leaf_id, model, params,
                                           config, rng)
            for nid, value in updates:
                mcts.backup(tree, nid, value)
        forest.trees.append(tree)
        found |= mcts.correct_solutions(mcts.Forest(question.id, [tree]))
        if len(found) >= config.target_correct:
            break
    return forest


def reference_sbs_best(model: Model, params: PolicyValueParams, question,
                       config, rng_seed: int, trace: list):
    """`infer.sbs_best` with `choice_sample_distinct` draws and one
    `legal_logprobs` or `value` call per state. Slot j at level L draws
    from a fresh copy of the decode's stream, first skipping the
    (j * max_depth + L) * min(b2, vocabulary size) uniforms of the blocks
    before its own."""
    env = model.env
    width = min(config.b2, len(env.vocab))
    root = env.initial_state(question)
    live = [(infer.BeamCandidate((), 0.0, model.value(params, root), False),
             root)]
    parked = []
    for level in range(env.config.max_depth):
        if not live:
            break
        pool = []
        for beam_idx, (beam, state) in enumerate(live):
            legal, logprobs, _, _ = model.legal_logprobs(params, state)
            rng = spawn_generator(infer._SBS_STREAM, rng_seed, question.id)
            rng.random((beam_idx * env.config.max_depth + level) * width)
            picks = choice_sample_distinct(
                temper(logprobs, config.temperature), config.b2, rng)
            trace.append(("expand", level, beam_idx, beam.prefix,
                          tuple(legal[i].id for i in picks)))
            for i in picks:
                action = legal[i]
                prefix = beam.prefix + (action.id,)
                logprob = beam.logprob + float(logprobs[i])
                if action.kind == TERMINAL:
                    parked.append(infer.BeamCandidate(
                        prefix, logprob, beam.value_score, True,
                        env.terminal_reward(state, action)))
                    continue
                child = env.transition(state, action)
                pool.append((infer.BeamCandidate(
                    prefix, logprob, model.value(params, child), False),
                    child, beam_idx))
        pool.sort(key=lambda t: (-t[0].value_score, -t[0].logprob, t[2]))
        live = [(cand, state) for cand, state, _ in pool[:config.b1]]
        trace.append(("retain", level, tuple(c.prefix for c, _ in live)))
    return max(parked + [cand for cand, _ in live],
               key=lambda c: (c.value_score, c.logprob))


# -- reference dataset: Generator.choice draws -------------------------------

def choice_gen_dataset(seed: int, n: int, difficulty: str,
                       config: EnvConfig | None = None):
    """`env.gen_dataset` with one `rng.choice(op_ids)` per chain op and
    every truth from `compute_truth`. Returns the questions and the
    generator after its last draw."""
    config = config or EnvConfig()
    op_ids = [a.id for a in vocabulary(config) if a.kind == INTERMEDIATE]
    lo, hi = DIFFICULTY_STEPS[difficulty]
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((envmod._DATASET_STREAM, seed))))
    questions = []
    for i in range(n):
        total_steps = int(rng.integers(lo, hi + 1))
        chain = tuple(int(rng.choice(op_ids)) for _ in range(total_steps - 1))
        start = int(rng.integers(config.start_lo, config.start_hi + 1))
        questions.append(Question(seed * 1_000_000 + i, start, chain,
                                  compute_truth(config, start, chain),
                                  difficulty))
    return questions, rng
