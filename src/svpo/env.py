"""Synthetic multi-step arithmetic environment.

Questions are integer chains: a start value and a sequence of operations
(add or multiply by small constants). An episode appends one action per
step; intermediate actions rewrite the scratch value, terminal actions
propose a final answer (current scratch plus a small offset) and end the
episode with reward +1 if the proposed answer equals the question's truth,
-1 otherwise. Transitions are deterministic and cheap enough to enumerate,
which the test oracles rely on.

A `State` is a `typing.NamedTuple`: search builds one per transition,
and a named tuple is made by one `tuple.__new__` call where a frozen
dataclass sets each field through `object.__setattr__`. It compares and
hashes by value and its fields cannot be assigned; `state._replace(...)`
makes a changed copy.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .records import load_jsonl, save_jsonl

INTERMEDIATE = "intermediate"
TERMINAL = "terminal"

# Total canonical solution length (ops + final answer step) per difficulty.
DIFFICULTY_STEPS = {"easy": (2, 3), "medium": (4, 5), "hard": (6, 8)}

_DATASET_STREAM = 0xD5


class EnvError(Exception):
    """Base class for environment errors."""


class DepthExceeded(EnvError):
    """Raised when an episode is extended past the depth budget."""


class IllegalAction(EnvError):
    """Raised when an action is not legal in the given state."""


class NotTerminal(EnvError):
    """Raised when a reward is requested for an intermediate action."""


class InvalidQuestion(EnvError, ValueError):
    """Raised when a question's spec lies outside the Env's bounds."""


@dataclass(frozen=True)
class EnvConfig:
    """Environment shape: operation vocabulary, answer offsets, bounds.

    ``answer_offsets`` may be empty for policy-only analysis configs;
    dataset generation requires at least one offset (the canonical
    solution answers with offset 0, which must be present).
    """

    add_consts: tuple[int, ...] = (1, 2, 3, -1, -2)
    mul_consts: tuple[int, ...] = (2,)
    answer_offsets: tuple[int, ...] = (0, 1, -1, 2, -2)
    max_depth: int = 8
    start_lo: int = 1
    start_hi: int = 9

    def __post_init__(self):
        if not self.add_consts and not self.mul_consts:
            raise ValueError("need at least one intermediate operation")
        if self.max_depth < 2:
            raise ValueError("max_depth must allow one op plus an answer")
        if self.start_lo > self.start_hi:
            raise ValueError("empty start value range")


@dataclass(frozen=True)
class Action:
    """One vocabulary entry. ``payload`` is the operation constant for
    intermediate actions and the answer offset for terminal actions."""

    id: int
    kind: str
    op: str
    payload: int

    @property
    def name(self) -> str:
        if self.op == "add":
            return f"add{self.payload:+d}"
        if self.op == "mul":
            return f"mul*{self.payload}"
        return f"ans{self.payload:+d}"


def vocabulary(config: EnvConfig) -> tuple[Action, ...]:
    """Fixed action vocabulary: adds, then muls, then answer offsets."""
    actions = []
    for c in config.add_consts:
        actions.append(Action(len(actions), INTERMEDIATE, "add", c))
    for c in config.mul_consts:
        actions.append(Action(len(actions), INTERMEDIATE, "mul", c))
    for off in config.answer_offsets:
        actions.append(Action(len(actions), TERMINAL, "answer", off))
    return tuple(actions)


@dataclass(frozen=True)
class Question:
    """A task instance. ``chain`` holds vocabulary ids of the canonical
    op sequence; ``truth`` is the scratch value after applying it."""

    id: int
    start: int
    chain: tuple[int, ...]
    truth: int
    difficulty: str


class State(NamedTuple):
    question_id: int
    steps: tuple[int, ...]
    scratch: int
    depth: int


@dataclass(frozen=True)
class Solution:
    """A complete or attempted episode for one question."""

    question_id: int
    steps: tuple[int, ...]
    predicted: int | None
    correct: bool


def apply_op(scratch: int, action: Action) -> int:
    if action.op == "add":
        return scratch + action.payload
    if action.op == "mul":
        return scratch * action.payload
    raise NotTerminal(f"action {action.name} does not rewrite scratch")


def compute_truth(config: EnvConfig, start: int, chain: tuple[int, ...]) -> int:
    return _run_chain(vocabulary(config), start, chain)


def _run_chain(vocab: tuple[Action, ...], start: int,
               chain: tuple[int, ...]) -> int:
    scratch = start
    for aid in chain:
        scratch = apply_op(scratch, vocab[aid])
    return scratch


def gen_dataset(seed: int, n: int, difficulty: str,
                config: EnvConfig | None = None) -> list[Question]:
    """Generate ``n`` solvable questions of the given difficulty.

    Question ids are ``seed * 1_000_000 + index`` so datasets drawn from
    different seeds never collide (train/test disjointness is checked by
    id downstream). Deterministic in (seed, n, difficulty, config).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if difficulty not in DIFFICULTY_STEPS:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    config = config or EnvConfig()
    if 0 not in config.answer_offsets:
        raise ValueError("dataset generation needs the offset-0 answer action")
    vocab = vocabulary(config)
    op_ids = [a.id for a in vocab if a.kind == INTERMEDIATE]
    lo, hi = DIFFICULTY_STEPS[difficulty]
    if hi > config.max_depth:
        raise ValueError("difficulty band exceeds depth budget")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((_DATASET_STREAM, seed))))
    # each op is op_ids[rng.integers(len(op_ids))]: the draw
    # `rng.choice(op_ids)` makes, from the same stream, without its
    # conversion of the list to an array
    n_ops = len(op_ids)
    questions = []
    for i in range(n):
        total_steps = int(rng.integers(lo, hi + 1))
        chain = tuple(op_ids[rng.integers(n_ops)]
                      for _ in range(total_steps - 1))
        start = int(rng.integers(config.start_lo, config.start_hi + 1))
        truth = _run_chain(vocab, start, chain)
        questions.append(Question(
            id=seed * 1_000_000 + i, start=start, chain=chain,
            truth=truth, difficulty=difficulty))
    return questions


class Env:
    """Binds a config and a question registry to the transition rules."""

    def __init__(self, config: EnvConfig | None = None,
                 questions: list[Question] | None = None):
        self.config = config or EnvConfig()
        self.vocab = vocabulary(self.config)
        self._questions: dict[int, Question] = {}
        if questions:
            self.register(questions)

    def register(self, questions: list[Question]) -> None:
        """Add questions to the registry. Raises InvalidQuestion, naming
        the question, for a start outside [start_lo, start_hi], a chain
        length outside 1..max_depth-1 or a chain entry that is not an
        intermediate action id; the features of such a question would
        spill into other blocks. Nothing is registered then."""
        config = self.config
        ops = {a.id for a in self.vocab if a.kind == INTERMEDIATE}
        for q in questions:
            if not config.start_lo <= q.start <= config.start_hi:
                problem = (f"start {q.start} outside "
                           f"[{config.start_lo}, {config.start_hi}]")
            elif not 1 <= len(q.chain) < config.max_depth:
                problem = (f"chain length {len(q.chain)} outside "
                           f"1..{config.max_depth - 1}")
            elif not ops.issuperset(q.chain):
                problem = (f"chain entries {sorted(set(q.chain) - ops)} are "
                           f"not intermediate action ids")
            else:
                continue
            raise InvalidQuestion(f"question {q.id}: {problem}")
        self._questions.update((q.id, q) for q in questions)

    def question(self, question_id: int) -> Question:
        return self._questions[question_id]

    def action(self, action_id: int) -> Action:
        """The vocabulary entry with this id; raises IllegalAction for an
        id outside the vocabulary (a negative id would otherwise index
        from the end)."""
        if not 0 <= action_id < len(self.vocab):
            raise IllegalAction(f"no action {action_id} in the vocabulary")
        return self.vocab[action_id]

    def initial_state(self, question: Question) -> State:
        return State(question.id, (), question.start, 0)

    def legal_actions(self, state: State) -> list[Action]:
        """Actions available in ``state``, in vocabulary order.

        Answering requires at least one computation step, so terminal
        actions only become legal at depth >= 1.
        """
        if state.depth >= self.config.max_depth:
            raise DepthExceeded(
                f"state at depth {state.depth} has no legal actions")
        if state.depth == 0:
            return [a for a in self.vocab if a.kind == INTERMEDIATE]
        return list(self.vocab)

    def transition(self, state: State, action: Action) -> State:
        if state.depth >= self.config.max_depth:
            raise DepthExceeded("cannot extend an episode past max_depth")
        if action.kind == TERMINAL and state.depth == 0:
            raise IllegalAction("cannot answer before any computation step")
        scratch = state.scratch
        if action.kind == INTERMEDIATE:
            scratch = apply_op(scratch, action)
        return State(state.question_id, state.steps + (action.id,),
                     scratch, state.depth + 1)

    def proposed_answer(self, state: State, action: Action) -> int:
        """Answer proposed by taking terminal ``action`` from ``state``."""
        if action.kind != TERMINAL:
            raise NotTerminal(f"{action.name} proposes no answer")
        return state.scratch + action.payload

    def terminal_reward(self, state: State, action: Action) -> int:
        """Reward for taking terminal ``action`` from ``state``: +1 iff the
        proposed answer equals the question's truth, else -1."""
        truth = self.question(state.question_id).truth
        return 1 if self.proposed_answer(state, action) == truth else -1

    def replay(self, question: Question, steps) -> State:
        """Re-run a step sequence from the initial state. Raises on any
        illegal step or unknown id, so a returned state is always
        reachable."""
        state = self.initial_state(question)
        for aid in steps:
            state = self.transition(state, self.action(aid))
        return state

    def solution_reward(self, question: Question, steps) -> int | None:
        """Reward of a complete episode, or None if it never answers.
        Raises IllegalAction if any step id is outside the vocabulary."""
        solution = self.build_solution(question, steps)
        if solution.predicted is None:
            return None
        return 1 if solution.correct else -1

    def build_solution(self, question: Question, steps) -> Solution:
        """The episode with its proposed answer (None if it never answers)
        and whether it earns reward +1; replays the prefix once."""
        steps = tuple(steps)
        actions = [self.action(aid) for aid in steps]
        if not actions or actions[-1].kind != TERMINAL:
            return Solution(question.id, steps, None, False)
        before = self.replay(question, steps[:-1])
        return Solution(question.id, steps,
                        self.proposed_answer(before, actions[-1]),
                        self.terminal_reward(before, actions[-1]) == 1)


def question_to_record(q: Question) -> dict:
    return {"id": q.id, "spec": {"start": q.start, "chain": list(q.chain)},
            "truth": q.truth, "difficulty": q.difficulty}


def question_from_record(rec: dict) -> Question:
    return Question(id=rec["id"], start=rec["spec"]["start"],
                    chain=tuple(rec["spec"]["chain"]), truth=rec["truth"],
                    difficulty=rec["difficulty"])


def save_dataset(questions: list[Question], path: str | Path) -> None:
    save_jsonl(map(question_to_record, questions), path)


def load_dataset(path: str | Path) -> list[Question]:
    return [question_from_record(rec) for rec in load_jsonl(path)]
