"""Decoding: greedy on the policy alone, and value-guided step-level
beam search.

Beam search keeps up to b1 live prefixes. Each level every live beam
samples b2 distinct next steps at the configured temperature; candidates
that answer are parked, the rest compete on the value head's score of
their new state. A parked candidate is scored with the value of the state
it answered from, since the true reward is not observable at inference
time. The final result is the parked-or-live candidate with the highest
score, so a run that never answers comes back as an unfinished, incorrect
solution rather than an error.

Beam search scores the root, and then all non-answering children of a
level, in one batched forward (`Model.policy_value`) per level. A
retained beam keeps its row's log-probs, from which the next level
samples, so no state is evaluated twice. Greedy decoding evaluates one
state per step. Sampling goes through `model.sample_distinct`, which
MCTS expansion uses too: a seed gives the same picks and leaves the
generator in the same state as that many `Generator.choice` calls would.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .env import Question, Solution, State, TERMINAL
from .model import (Model, PolicyValueParams, sample_distinct,
                    spawn_generator, temper)

_SBS_STREAM = 0x5B5


@dataclass
class SBSConfig:
    b1: int = 1
    b2: int = 5
    temperature: float = 0.8
    max_depth: int = 8

    def __post_init__(self):
        if self.b1 < 1 or self.b2 < 1:
            raise ValueError("b1 and b2 must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


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
    steps: list[int] = []
    while state.depth < env.config.max_depth:
        legal, logprobs, _, _ = model.legal_logprobs(params, state)
        pick = min(range(len(legal)),
                   key=lambda i: (-logprobs[i], legal[i].id))
        action = legal[pick]
        steps.append(action.id)
        state = env.transition(state, action)
        if action.kind == TERMINAL:
            break
    return env.build_solution(question, steps)


def sbs_best(model: Model, params: PolicyValueParams, question: Question,
             config: SBSConfig, rng_seed: int,
             trace: list | None = None) -> BeamCandidate:
    """Run the search and return the winning candidate (see `sbs`).

    Each (level, beam slot) draws from its own seed stream, so the top
    beam's sampling does not depend on how many sibling beams exist.
    """
    env = model.env
    root = env.initial_state(question)
    logp, values, _, _ = model.policy_value(params, [root])
    # live beams: (candidate, state, its whole-vocabulary log-prob row)
    live = [(BeamCandidate((), 0.0, float(values[0]), False), root, logp[0])]
    parked: list[BeamCandidate] = []
    # a state at the Env's depth budget has no legal actions
    max_depth = min(config.max_depth, env.config.max_depth)
    level = 0
    while live and level < max_depth:
        children: list[tuple[tuple[int, ...], float, State, int]] = []
        for beam_idx, (beam, state, row) in enumerate(live):
            legal, logprobs = model.legal_rows(state, row)
            rng = spawn_generator(_SBS_STREAM, rng_seed, question.id, level,
                                  beam_idx)
            picks = sample_distinct(temper(logprobs, config.temperature),
                                    config.b2, rng)
            if trace is not None:
                trace.append(("expand", level, beam_idx, beam.prefix,
                              tuple(legal[i].id for i in picks)))
            for i in picks:
                action = legal[i]
                prefix = beam.prefix + (action.id,)
                logprob = beam.logprob + float(logprobs[i])
                if action.kind == TERMINAL:
                    # scored by the value of the state answered from
                    parked.append(BeamCandidate(
                        prefix, logprob, beam.value_score, True,
                        env.terminal_reward(state, action)))
                    continue
                children.append((prefix, logprob,
                                 env.transition(state, action), beam_idx))
        logp, values, _, _ = model.policy_value(
            params, [state for _, _, state, _ in children])
        pool = [(BeamCandidate(prefix, logprob, float(value), False),
                 state, row, beam_idx)
                for (prefix, logprob, state, beam_idx), value, row
                in zip(children, values, logp)]
        pool.sort(key=lambda t: (-t[0].value_score, -t[0].logprob, t[3]))
        live = [(cand, state, row) for cand, state, row, _ in pool[:config.b1]]
        if trace is not None:
            trace.append(("retain", level,
                          tuple(cand.prefix for cand, _, _ in live)))
        level += 1
    candidates = parked + [cand for cand, _, _ in live]
    return max(candidates, key=lambda c: (c.value_score, c.logprob))


def sbs(model: Model, params: PolicyValueParams, question: Question,
        config: SBSConfig, rng_seed: int,
        trace: list | None = None) -> Solution:
    """Value-guided step-level beam search; deterministic given the seed."""
    best = sbs_best(model, params, question, config, rng_seed, trace)
    return model.env.build_solution(question, best.prefix)


# -- result records -----------------------------------------------------------

def inference_record(model: Model, params: PolicyValueParams,
                     question: Question, mode: str,
                     sbs_config: SBSConfig | None = None,
                     rng_seed: int = 0) -> dict:
    if mode == "greedy":
        solution = greedy_decode(model, params, question)
        b1 = b2 = score = None
    elif mode == "sbs":
        config = sbs_config or SBSConfig()
        best = sbs_best(model, params, question, config, rng_seed)
        solution = model.env.build_solution(question, best.prefix)
        b1, b2, score = config.b1, config.b2, best.value_score
    else:
        raise ValueError(f"unknown inference mode {mode!r}")
    return {"question_id": question.id, "mode": mode, "b1": b1, "b2": b2,
            "steps": list(solution.steps), "predicted": solution.predicted,
            "truth": question.truth, "correct": solution.correct,
            "score": score}


def save_inference_records(records: list[dict], path: str | Path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def load_inference_records(path: str | Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
