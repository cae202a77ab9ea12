"""Step-level preference data carved out of labeled search forests.

A node is correct when some terminal at or below it holds reward +1.
Each tree is walked from the root: at every level the argmax-Q correct
child becomes the winner, and non-correct nodes become losers of three
kinds — siblings (same parent), cousins (same depth, different parent),
and terminals (wrong complete answers at other depths). With the default
counts (2 siblings, 1 cousin, 1 terminal) each walked level contributes
one positive prefix and up to four negatives, which is where the roughly
1:4 positive:negative ratio comes from. A loser node is never reused
within a question, and when a level has no candidates at all, one loser
is borrowed from another tree of the same forest, sibling-like first.

Losers of a kind are drawn uniformly without replacement by
`model.Uint32Stream.distinct` over the forest's pair generator: numpy's
own Floyd algorithm in Python, which picks what `Generator.choice(n,
size=k, replace=False)` would pick from the same stream at a fraction of
choice's fixed cost per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .env import Env, Solution
from .mcts import Forest, SearchTree, TreeNode
from .model import Uint32Stream, spawn_generator
from .records import load_jsonl, save_jsonl

_PAIR_STREAM = 0xBA1

SIBLING = "sibling"
COUSIN = "cousin"
TERMINAL_KIND = "terminal"
_KIND_ORDER = (SIBLING, COUSIN, TERMINAL_KIND)  # cross-tree loser preference


class UnlabeledForest(Exception):
    """Raised when extraction runs before label_correct."""


@dataclass
class PairCounts:
    n_sibling: int = 2
    n_cousin: int = 1
    n_terminal: int = 1

    def __post_init__(self):
        if min(self.n_sibling, self.n_cousin, self.n_terminal) < 0:
            raise ValueError("pair counts must be >= 0")


@dataclass(frozen=True)
class PreferencePair:
    """One winner/loser prefix pair. `level` is the length of the shared
    action prefix (where the two step sequences diverge). `tree` is the
    index, in its question's forest, of the tree whose walk emitted the
    pair; the positive count of `positive_negative_ratio` needs it."""

    question_id: int
    winner: tuple[int, ...]
    loser: tuple[int, ...]
    kind: str
    q_w: float
    q_l: float
    level: int
    tree: int


@dataclass(frozen=True)
class ValueTarget:
    """Frozen regression target for the value head: terminal nodes carry
    their reward, internal nodes their search Q."""

    question_id: int
    prefix: tuple[int, ...]
    target: float


def label_correct(forest: Forest) -> Forest:
    """Mark every node with a correct terminal at or below it. Idempotent;
    re-labeling a labeled forest is a no-op."""
    for tree in forest.trees:
        for node in tree.nodes:
            node.correct = False
        for node in tree.nodes:
            if node.terminal and node.reward == 1:
                cur: int | None = node.id
                while cur is not None:
                    tree.nodes[cur].correct = True
                    cur = tree.nodes[cur].parent
    forest.labeled = True
    return forest


def _divergence(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def classify_kind(winner: tuple[int, ...], loser: tuple[int, ...]) -> str:
    """Structural pair kind: equal-length prefixes sharing everything but
    the last action are siblings, other equal-length pairs are cousins,
    and unequal lengths make a terminal pair."""
    if len(winner) != len(loser):
        return TERMINAL_KIND
    if _divergence(winner, loser) == len(winner) - 1:
        return SIBLING
    return COUSIN


def _draw(words: Uint32Stream, candidates: list, k: int) -> list:
    """Up to k distinct picks, candidate order held stable for determinism."""
    if not candidates or k <= 0:
        return []
    k = min(k, len(candidates))
    return [candidates[i] for i in words.distinct(len(candidates), k)]


def extract_pairs(forest: Forest, counts: PairCounts,
                  rng_seed: int) -> list[PreferencePair]:
    """Walk each tree of a labeled forest and emit preference pairs.

    Deterministic in (forest, counts, rng_seed). Skips trees whose roots
    have no correct child.
    """
    if not forest.labeled:
        raise UnlabeledForest("run label_correct before extracting pairs")
    words = Uint32Stream(spawn_generator(_PAIR_STREAM, rng_seed,
                                         forest.question_id))
    used: set[tuple[int, int]] = set()
    pairs: list[PreferencePair] = []

    def emit(t: int, winner: TreeNode, loser_t: int, loser: TreeNode,
             kind: str) -> None:
        used.add((loser_t, loser.id))
        pairs.append(PreferencePair(
            question_id=forest.question_id, winner=winner.state.steps,
            loser=loser.state.steps, kind=kind, q_w=winner.Q, q_l=loser.Q,
            level=_divergence(winner.state.steps, loser.state.steps),
            tree=t))

    for t, tree in enumerate(forest.trees):
        by_depth = wrong_terminals = None
        node = tree.root
        while not node.terminal:
            correct_children = [tree.nodes[c] for c in node.children
                                if tree.nodes[c].correct]
            if not correct_children:
                break
            if by_depth is None:  # the tree is walked: group its losers
                by_depth, wrong_terminals = _loser_pools(tree)
            n_w = min(correct_children, key=lambda n: (-n.Q, n.id))
            depth = n_w.state.depth
            siblings = [tree.nodes[c] for c in node.children
                        if not tree.nodes[c].correct and (t, c) not in used]
            cousins = [n for n in by_depth.get(depth, ())
                       if n.parent != node.id and (t, n.id) not in used]
            terminals = [n for n in wrong_terminals
                         if n.state.depth != depth and (t, n.id) not in used]
            if siblings or cousins or terminals:
                for loser in _draw(words, siblings, counts.n_sibling):
                    emit(t, n_w, t, loser, SIBLING)
                for loser in _draw(words, cousins, counts.n_cousin):
                    emit(t, n_w, t, loser, COUSIN)
                for loser in _draw(words, terminals, counts.n_terminal):
                    emit(t, n_w, t, loser, TERMINAL_KIND)
            else:
                borrowed = _cross_tree_fallback(forest, t, n_w, depth, used)
                if borrowed is not None:
                    loser_t, loser = borrowed
                    emit(t, n_w, loser_t, loser,
                         classify_kind(n_w.state.steps, loser.state.steps))
            node = n_w
    return pairs


def _loser_pools(tree: SearchTree):
    """The tree's non-correct non-root nodes by depth, and its wrong
    terminals, each in arena order."""
    wrong = [n for n in tree.nodes[1:] if not n.correct]
    by_depth: dict[int, list[TreeNode]] = {}
    for n in wrong:
        by_depth.setdefault(n.state.depth, []).append(n)
    return by_depth, [n for n in wrong if n.terminal]


def _cross_tree_fallback(forest: Forest, t: int, n_w: TreeNode, depth: int,
                         used: set[tuple[int, int]]):
    """One loser from another tree: a non-correct node at the winner's
    depth or a wrong terminal at another depth, ranked by its
    `classify_kind` against the winner (sibling, then cousin, then
    terminal), then by lowest (tree, node id)."""
    winner_steps = n_w.state.steps
    candidates = [(ot, node) for ot, other in enumerate(forest.trees)
                  if ot != t for node in other.nodes
                  if not (node.correct or node.parent is None
                          or (ot, node.id) in used)
                  and (node.state.depth == depth or node.terminal)]
    if not candidates:
        return None
    return min(candidates, key=lambda p: (
        _KIND_ORDER.index(classify_kind(winner_steps, p[1].state.steps)),
        p[0], p[1].id))


def extract_value_targets(forest: Forest) -> list[ValueTarget]:
    """One frozen target per visited non-root node, in arena order."""
    out = []
    for tree in forest.trees:
        for node in tree.nodes:
            if node.parent is None or node.N < 1:
                continue
            target = float(node.reward) if node.terminal else float(node.Q)
            out.append(ValueTarget(forest.question_id, node.state.steps,
                                   target))
    return out


def extract_sft_solutions(env: Env, forest: Forest, k: int) -> list[Solution]:
    """Up to k distinct correct complete solutions, highest mean path Q
    first (path Q averages the nodes along the root-to-terminal path,
    root excluded)."""
    if not forest.labeled:
        raise UnlabeledForest("run label_correct before extracting solutions")
    question = env.question(forest.question_id)
    ranked: dict[tuple[int, ...], tuple[float, int, int]] = {}
    for t, tree in enumerate(forest.trees):
        for node in tree.nodes:
            if not (node.terminal and node.reward == 1):
                continue
            path = tree.path_ids(node.id)[1:]
            # fsum: exact, so tied paths rank alike on every Python
            mean_q = math.fsum(tree.nodes[i].Q for i in path) / len(path)
            key = node.state.steps
            cand = (-mean_q, t, node.id)
            if key not in ranked or cand < ranked[key]:
                ranked[key] = cand
    ordered = sorted(ranked.items(), key=lambda kv: kv[1])
    return [env.build_solution(question, steps) for steps, _ in ordered[:k]]


def positive_negative_ratio(pairs: list[PreferencePair]) -> float:
    """Negatives per positive: each emitted pair is one negative example,
    each walked winner prefix (per question and tree) one positive."""
    if not pairs:
        return 0.0
    positives = {(p.question_id, p.tree, p.winner) for p in pairs}
    return len(pairs) / len(positives)


# -- (de)serialization ------------------------------------------------------

def pair_to_record(p: PreferencePair) -> dict:
    return {"question_id": p.question_id, "winner": list(p.winner),
            "loser": list(p.loser), "kind": p.kind, "q_w": p.q_w,
            "q_l": p.q_l, "level": p.level, "tree": p.tree}


def pair_from_record(rec: dict) -> PreferencePair:
    return PreferencePair(
        question_id=rec["question_id"], winner=tuple(rec["winner"]),
        loser=tuple(rec["loser"]), kind=rec["kind"], q_w=rec["q_w"],
        q_l=rec["q_l"], level=rec["level"], tree=rec["tree"])


def save_pairs(pairs: list[PreferencePair], path: str | Path) -> None:
    save_jsonl(map(pair_to_record, pairs), path)


def load_pairs(path: str | Path) -> list[PreferencePair]:
    return [pair_from_record(rec) for rec in load_jsonl(path)]


def save_value_targets(targets: list[ValueTarget], path: str | Path) -> None:
    save_jsonl(({"question_id": t.question_id, "prefix": list(t.prefix),
                 "target": t.target} for t in targets), path)


def load_value_targets(path: str | Path) -> list[ValueTarget]:
    return [ValueTarget(rec["question_id"], tuple(rec["prefix"]),
                        rec["target"]) for rec in load_jsonl(path)]


def save_solutions(solutions: list[Solution], path: str | Path) -> None:
    save_jsonl(({"question_id": s.question_id, "steps": list(s.steps),
                 "predicted": s.predicted, "correct": s.correct}
                for s in solutions), path)


def load_solutions(path: str | Path) -> list[Solution]:
    return [Solution(rec["question_id"], tuple(rec["steps"]),
                     rec["predicted"], rec["correct"])
            for rec in load_jsonl(path)]
