"""Decoding: greedy on the policy alone, and value-guided step-level
beam search.

Beam search keeps up to b1 live prefixes. Each level every live beam
samples b2 distinct next steps at the configured temperature; candidates
that answer are parked, the rest compete on the value head's score of
their new state. A parked candidate is scored with the value of the state
it answered from, since the true reward is not observable at inference
time. The final result is the parked-or-live candidate with the highest
(score, log-prob), parked and earlier first on ties, so a run that never
answers comes back as an unfinished, incorrect solution, not an error.

A decode seeds one generator and reads its uniforms in disjoint blocks
of w = min(b2, vocabulary size), beam slot j at level L from offset
(j * max_depth + L) * w: slot-major, so the top slot's draws do not
depend on b1. A slot's blocks are drawn when it first lives.

Beam search scores the root, and then all non-answering children of a
level, in one batched forward (`Model.policy_value`) per level. A
retained beam keeps its row's log-probs, from which the next level
samples, so no state is evaluated twice. Every live beam of a level sits
at the same depth and so has the same legal actions: a level costs one
`legal_rows` and one `temper` call over the stacked live rows, one
`sample_distinct` call per live beam (b1 at most), and one forward. A
level whose every pick answers leaves no child to score, and the search
ends there without a forward. A beam or parked answer is kept as its
`State`, whose steps are its prefix; only the returned candidate
becomes a `BeamCandidate`, and only the best answer so far is kept, its
reward computed once. Greedy decoding keeps one state. Sampling goes
through `model.sample_distinct`, which MCTS expansion uses too: given a
generator's uniforms it picks what as many `Generator.choice` calls
would from the same stream.
"""
from __future__ import annotations

from dataclasses import dataclass

from .env import Question, Solution, TERMINAL
from .model import (Model, PolicyValueParams, sample_distinct,
                    spawn_generator, temper)

_SBS_STREAM = 0x5B5


@dataclass
class SBSConfig:
    b1: int = 1
    b2: int = 5
    temperature: float = 0.8

    def __post_init__(self):
        if self.b1 < 1 or self.b2 < 1:
            raise ValueError("b1 and b2 must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class BeamCandidate:
    prefix: tuple[int, ...]
    logprob: float
    value_score: float
    finished: bool
    reward: int | None = None


def greedy_decode(model: Model, params: PolicyValueParams,
                  question: Question) -> Solution:
    """Follow the argmax action until an answer is given or depth runs
    out; probability ties break toward the lowest action id."""
    env = model.env
    state = env.initial_state(question)
    while state.depth < env.config.max_depth:
        legal, logprobs = model.legal_logprobs(params, state)
        # argmax takes the first maximum, and legal is in vocabulary order
        action = legal[int(logprobs.argmax())]
        state = env.transition(state, action)
        if action.kind == TERMINAL:
            break
    return env.build_solution(question, state.steps)


def sbs_best(model: Model, params: PolicyValueParams, question: Question,
             config: SBSConfig, rng_seed: int,
             trace: list | None = None) -> BeamCandidate:
    """Run the search and return the winning candidate (see `sbs`).

    One seed stream per decode, read in fixed (slot, level) blocks, so
    the top beam's sampling does not depend on how many sibling beams
    exist. Children are ranked by (value, log-prob, lower beam slot).
    """
    env = model.env
    width = min(config.b2, len(env.vocab))
    rng = spawn_generator(_SBS_STREAM, rng_seed, question.id)
    uniforms: list[float] = []
    root = env.initial_state(question)
    logp, values, _, _ = model.policy_value(params, [root])
    # live beams as parallel lists: states, log-probs and value scores,
    # with their whole-vocabulary log-prob rows in `logp`
    states, live_logprobs, live_values = [root], [0.0], [float(values[0])]
    best = None  # parked answer: ((score, logprob), state, action)
    level = 0
    # a state at the Env's depth budget has no legal actions
    while states and level < env.config.max_depth:
        # every live beam sits at depth `level`, so all share one legal set
        legal, logp = model.legal_rows(states[0], logp)
        probs = temper(logp, config.temperature).tolist()
        rows = logp.tolist()
        n = min(config.b2, len(legal))
        # the level's non-answering children, as parallel lists
        logprobs, children, parents = [], [], []
        for beam_idx, state in enumerate(states):
            start = (beam_idx * env.config.max_depth + level) * width
            if start + n > len(uniforms):  # the slot's first block
                uniforms += rng.random(env.config.max_depth * width).tolist()
            picks = sample_distinct(probs[beam_idx], uniforms[start:start + n])
            if trace is not None:
                trace.append(("expand", level, beam_idx, state.steps,
                              tuple(legal[i].id for i in picks)))
            beam_logprob, row = live_logprobs[beam_idx], rows[beam_idx]
            for i in picks:
                action = legal[i]
                logprob = beam_logprob + row[i]
                if action.kind == TERMINAL:
                    # scored by the value of the state answered from
                    key = (live_values[beam_idx], logprob)
                    if best is None or key > best[0]:
                        best = (key, state, action)
                    continue
                logprobs.append(logprob)
                children.append(env.transition(state, action))
                parents.append(beam_idx)
        if children:
            logp, values, _, _ = model.policy_value(params, children)
            values = values.tolist()
            keep = sorted(range(len(children)), key=lambda j: (
                -values[j], -logprobs[j], parents[j]))[:config.b1]
            logp = logp[keep]
        else:  # every pick answered: the search ends without a forward
            keep = []
        states = [children[j] for j in keep]
        live_logprobs = [logprobs[j] for j in keep]
        live_values = [values[j] for j in keep]
        if trace is not None:
            trace.append(("retain", level, tuple(s.steps for s in states)))
        level += 1
    if states:
        top = max(range(len(states)),
                  key=lambda j: (live_values[j], live_logprobs[j]))
        key = (live_values[top], live_logprobs[top])
        if best is None or key > best[0]:
            return BeamCandidate(states[top].steps, key[1], key[0], False)
    (score, logprob), state, action = best
    return BeamCandidate(state.steps + (action.id,), logprob, score, True,
                         env.terminal_reward(state, action))


def sbs(model: Model, params: PolicyValueParams, question: Question,
        config: SBSConfig, rng_seed: int,
        trace: list | None = None) -> Solution:
    """Value-guided step-level beam search; deterministic given the seed."""
    best = sbs_best(model, params, question, config, rng_seed, trace)
    return model.env.build_solution(question, best.prefix)


# -- result records -----------------------------------------------------------

def inference_record(model: Model, params: PolicyValueParams,
                     question: Question, sbs_config: SBSConfig | None,
                     rng_seed: int = 0) -> dict:
    """One decode's record, greedy when `sbs_config` is None."""
    if sbs_config is None:
        solution = greedy_decode(model, params, question)
        mode, b1, b2, score = "greedy", None, None, None
    else:
        best = sbs_best(model, params, question, sbs_config, rng_seed)
        solution = model.env.build_solution(question, best.prefix)
        mode, b1, b2, score = ("sbs", sbs_config.b1, sbs_config.b2,
                               best.value_score)
    return {"question_id": question.id, "mode": mode, "b1": b1, "b2": b2,
            "steps": list(solution.steps), "predicted": solution.predicted,
            "truth": question.truth, "correct": solution.correct,
            "score": score}
