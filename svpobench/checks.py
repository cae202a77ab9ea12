"""Output checks and the seeded output digest.

Every check returns a list of failure messages (empty when the output is
sound). ``CheckReport`` counts each checked item as one attempted
operation and each failing item as one failed operation.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from svpo.env import Env, EnvConfig, EnvError, Question, Solution
from svpo.mcts import SearchTree
from svpo.model import PolicyValueParams
from svpo.pairs import PreferencePair, classify_kind, pair_to_record
from svpo.train import LOG_FIELDS


@dataclass
class CheckReport:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def _replay_problem(env: Env, question: Question, steps, what: str):
    try:
        env.replay(question, steps)
    except (EnvError, IndexError) as exc:
        return f"{what} {tuple(steps)} of question {question.id} does not " \
               f"replay: {exc!r}"
    return None


def check_solution(question: Question, solution: Solution) -> list[str]:
    """The decoded steps replay legally on a fresh Env and the solution's
    correct flag equals ``solution_reward == 1``."""
    env = Env(EnvConfig(), [question])
    problem = _replay_problem(env, question, solution.steps, "solution")
    if problem:
        return [problem]
    expected = env.solution_reward(question, solution.steps) == 1
    if solution.question_id != question.id or solution.correct != expected:
        return [f"solution {solution} of question {question.id}: correct "
                f"flag should be {expected}"]
    return []


def check_pair(question: Question, pair: PreferencePair) -> list[str]:
    """Both sides replay legally and the kind matches the structure."""
    env = Env(EnvConfig(), [question])
    problems = [p for p in (
        _replay_problem(env, question, pair.winner, "winner"),
        _replay_problem(env, question, pair.loser, "loser")) if p]
    kind = classify_kind(pair.winner, pair.loser)
    if pair.kind != kind:
        problems.append(f"pair {pair.winner}/{pair.loser} of question "
                        f"{question.id} has kind {pair.kind}, shape says "
                        f"{kind}")
    return problems


def check_tree(tree: SearchTree) -> list[str]:
    """Visit counts add up: the root's N is the sum of its children's N
    (every backup passes through exactly one root child) and no node has
    fewer visits than its children together."""
    problems = []
    for node in tree.nodes:
        below = sum(tree.nodes[c].N for c in node.children)
        if node.N < below or (node.parent is None and node.N != below):
            problems.append(f"question {tree.question_id} node {node.id}: "
                            f"N={node.N}, children sum {below}")
    return problems


def check_params(params: PolicyValueParams) -> list[str]:
    ok = all(np.isfinite(w).all()
             for w in (params.w_shared, params.w_policy, params.w_value))
    return [] if ok else ["params hold non-finite values"]


def check_log(path: Path) -> list[str]:
    """Every numeric column of a training log CSV is finite."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    numeric = [f for f in LOG_FIELDS if f != "stage"]
    bad = [row["step"] for row in rows
           if not all(math.isfinite(float(row[f])) for f in numeric)]
    return [f"log rows {bad[:5]} hold non-finite losses"] if bad else []


# -- digest -------------------------------------------------------------------

_TIMING_KEY = re.compile(r"time|wall|seconds|(^|_)(s|ms)$|per_s$")


def strip_timings(value):
    """Drop every mapping key that names a timing, at any depth."""
    if isinstance(value, dict):
        return {k: strip_timings(v) for k, v in value.items()
                if not _TIMING_KEY.search(k)}
    if isinstance(value, list):
        return [strip_timings(v) for v in value]
    return value


def digest(parts: list[bytes]) -> str:
    """sha256 over length-prefixed parts, so part boundaries count."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def pipeline_digest(out_dir: Path) -> str:
    """summary.json without timings, plus both checkpoints byte for byte."""
    summary = json.loads((out_dir / "summary.json").read_text())
    return digest([canonical(strip_timings(summary)),
                   (out_dir / "ckpt_pretrain.json").read_bytes(),
                   (out_dir / "ckpt_svpo.json").read_bytes()])


def search_digest(pairs: list[PreferencePair], decodes: list) -> str:
    """The extracted pairs and the decoded solutions, in run order."""
    return digest([
        canonical([pair_to_record(p) for p in pairs]),
        canonical([[kind, question.id, list(s.steps), s.predicted, s.correct]
                   for kind, question, s, _ in decodes])])
