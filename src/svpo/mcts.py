"""Monte Carlo tree search over the arithmetic environment.

Selection walks the tree by the PUCT rule (mean action value plus an
exploration bonus proportional to prior * sqrt(parent visits) / (1 +
child visits)). Expansion samples up to n_children distinct actions from
the tempered policy, stores their untempered probabilities as priors, and
evaluates each new child with a one-step rollout: a terminal child is
worth its reward, a child whose single rollout step answers is worth that
answer's reward (the rollout node is kept in the tree), and anything else
is worth 0. Backup is the incremental-mean update along the path to the
root. A forest stacks trees for one question until enough distinct
correct solutions exist or the tree budget runs out.

`build_forest` keeps one policy memo per forest: the legal actions,
probabilities and tempered probabilities of every state the forest has
evaluated, keyed by its steps. The probabilities are stored as lists of
Python floats, since priors and draws read them one entry at a time. An
expansion evaluates all of its new rollout children that the memo lacks
in one batched forward (`Model.policy_value`, then one `np.exp`, one
`temper` and one `legal_rows` over the batch) and draws each child's
rollout step with `model.draw_index`, the uniforms from one
`rng.random(m)` call. A node's rollout distribution is reused when the
node is expanded, and every tree after the first reuses the states the
earlier trees reached, so the policy runs at most once per distinct
state. The memo lives for one call, which has one question and one
`params`, so it never outlives the parameters it was computed from.
Every categorical draw consumes the generator exactly as
`Generator.choice` would (see `model.sample_distinct` and
`model.draw_index`).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import TERMINAL, DepthExceeded, Env, Question, State
from .model import (Model, PolicyValueParams, draw_index, sample_distinct,
                    spawn_generator, temper)

_TREE_STREAM = 0x7EE


class MCTSError(Exception):
    pass


class AlreadyExpanded(MCTSError):
    pass


@dataclass
class SearchConfig:
    c_puct: float = 1.25
    temperature: float = 1.0
    n_children: int = 5
    max_simulations: int = 60
    max_trees: int = 10
    target_correct: int = 4

    def __post_init__(self):
        if self.c_puct <= 0 or self.temperature <= 0:
            raise ValueError("c_puct and temperature must be positive")
        if min(self.n_children, self.max_simulations, self.max_trees,
               self.target_correct) < 1:
            raise ValueError("search budgets must be >= 1")


@dataclass
class TreeNode:
    id: int
    parent: int | None
    action: int | None          # vocabulary id of the incoming action
    state: State
    prior: float
    N: int = 0
    Q: float = 0.0
    terminal: bool = False
    reward: int | None = None
    correct: bool = False
    children: list[int] = field(default_factory=list)


@dataclass
class SearchTree:
    question_id: int
    nodes: list[TreeNode] = field(default_factory=list)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def add_node(self, parent: int | None, action: int | None, state: State,
                 prior: float, terminal: bool = False,
                 reward: int | None = None) -> TreeNode:
        node = TreeNode(id=len(self.nodes), parent=parent, action=action,
                        state=state, prior=prior, terminal=terminal,
                        reward=reward)
        self.nodes.append(node)
        if parent is not None:
            self.nodes[parent].children.append(node.id)
        return node

    def path_ids(self, node_id: int) -> list[int]:
        """Node ids from root to node_id inclusive."""
        path = []
        cur: int | None = node_id
        while cur is not None:
            path.append(cur)
            cur = self.nodes[cur].parent
        return path[::-1]


@dataclass
class Forest:
    question_id: int
    trees: list[SearchTree] = field(default_factory=list)
    labeled: bool = False


def new_tree(env: Env, question: Question) -> SearchTree:
    tree = SearchTree(question_id=question.id)
    tree.add_node(parent=None, action=None, state=env.initial_state(question),
                  prior=1.0)
    return tree


def select(tree: SearchTree, c_puct: float = 1.25) -> int:
    """Descend by PUCT until a node with no expanded children; ties break
    toward the lowest child index."""
    node = tree.root
    while node.children:
        parent_sqrt = math.sqrt(node.N)
        best_id, best_score = -1, -math.inf
        for cid in node.children:
            child = tree.nodes[cid]
            score = child.Q + c_puct * child.prior * parent_sqrt / (1 + child.N)
            if score > best_score:
                best_id, best_score = cid, score
        node = tree.nodes[best_id]
    return node.id


def expand_and_evaluate(tree: SearchTree, node_id: int, model: Model,
                        params: PolicyValueParams, config: SearchConfig,
                        rng: np.random.Generator,
                        memo: dict) -> list[tuple[int, float]]:
    """Create sampled children of a non-terminal leaf and return the
    (node_id, leaf value) pairs the caller must back up.

    `memo` is the forest's policy memo (see the module docstring); an
    empty dict computes every distribution afresh. Raises AlreadyExpanded for
    a node with children or a terminal node, and env.DepthExceeded for a
    node at the Env's depth budget."""
    node = tree.nodes[node_id]
    if node.children:
        raise AlreadyExpanded(f"node {node_id} already has children")
    if node.terminal:
        raise AlreadyExpanded(f"node {node_id} is terminal")
    env = model.env
    max_depth = env.config.max_depth
    if node.state.depth >= max_depth:
        raise DepthExceeded(f"node {node_id} is at the depth budget")
    [(legal, probs, tempered)] = _policies(model, params, [node.state],
                                           config.temperature, memo)
    uniforms = rng.random(min(config.n_children, len(tempered))).tolist()
    children = [(legal[i], probs[i], env.transition(node.state, legal[i]))
                for i in sample_distinct(tempered, uniforms)]
    rollout = [state for action, _, state in children
               if action.kind != TERMINAL and state.depth < max_depth]
    rollouts = iter(())
    if rollout:
        policies = _policies(model, params, rollout, config.temperature,
                             memo)
        picks = [draw_index(t, u) for (_, _, t), u
                 in zip(policies, rng.random(len(rollout)).tolist())]
        rollouts = iter(zip(policies, picks))
    results: list[tuple[int, float]] = []
    for action, prior, child_state in children:
        if action.kind == TERMINAL:
            reward = env.terminal_reward(node.state, action)
            child = tree.add_node(node_id, action.id, child_state, prior,
                                  terminal=True, reward=reward)
            results.append((child.id, float(reward)))
            continue
        if child_state.depth >= max_depth:
            # depth cutoff without an answer counts as an incorrect terminal
            child = tree.add_node(node_id, action.id, child_state, prior,
                                  terminal=True, reward=-1)
            results.append((child.id, -1.0))
            continue
        child = tree.add_node(node_id, action.id, child_state, prior)
        (r_legal, r_probs, _), r_idx = next(rollouts)
        r_action = r_legal[r_idx]
        if r_action.kind == TERMINAL:
            reward = env.terminal_reward(child_state, r_action)
            grand = tree.add_node(child.id, r_action.id,
                                  env.transition(child_state, r_action),
                                  r_probs[r_idx], terminal=True,
                                  reward=reward)
            results.append((grand.id, float(reward)))
        else:
            results.append((child.id, 0.0))
    return results


def _policies(model: Model, params: PolicyValueParams, states,
              temperature: float, memo: dict) -> list[tuple]:
    """(legal actions, probabilities, tempered probabilities) of each
    state, the probabilities as lists of floats, read from the memo; the
    states it lacks are evaluated in one batched forward and stored
    there. The states sit at one depth (a node, or the rollout children
    of one node), so they share one legal set and one `legal_rows`
    call."""
    missing = [s for s in states if s.steps not in memo]
    if missing:
        logp, _, _, _ = model.policy_value(params, missing)
        legal, probs, tempered = model.legal_rows(
            missing[0], np.exp(logp), temper(logp, temperature))
        for state, p, t in zip(missing, probs.tolist(), tempered.tolist()):
            memo[state.steps] = (legal, p, t)
    return [memo[s.steps] for s in states]


def backup(tree: SearchTree, node_id: int, value: float) -> None:
    """Incremental mean update along the path from node_id to the root:
    N += 1, Q += (value - Q) / N at every node on the path."""
    cur: int | None = node_id
    while cur is not None:
        node = tree.nodes[cur]
        node.N += 1
        node.Q += (value - node.Q) / node.N
        cur = node.parent


def correct_solutions(forest: Forest) -> set[tuple[int, ...]]:
    """Distinct correct complete step sequences present in the forest."""
    found = set()
    for tree in forest.trees:
        for node in tree.nodes:
            if node.terminal and node.reward == 1:
                found.add(node.state.steps)
    return found


def build_forest(model: Model, question: Question, params: PolicyValueParams,
                 config: SearchConfig, rng_seed: int,
                 trace: list | None = None) -> Forest:
    """Run tree searches for one question until target_correct distinct
    correct solutions exist or max_trees is exhausted.

    Tree t draws from an independent generator seeded by (rng_seed, t), so
    forests are reproducible and trees are order-independent; the trees
    share one policy memo, whose entries depend only on the state. When
    `trace` is given, every backup is logged as (tree_index, node_id,
    value) for replay-style verification.
    """
    forest = Forest(question_id=question.id)
    found: set[tuple[int, ...]] = set()
    memo: dict = {}
    for t in range(config.max_trees):
        rng = spawn_generator(_TREE_STREAM, rng_seed, t)
        tree = new_tree(model.env, question)
        for _ in range(config.max_simulations):
            leaf_id = select(tree, config.c_puct)
            leaf = tree.nodes[leaf_id]
            if leaf.terminal:
                updates = [(leaf_id, float(leaf.reward))]
            else:
                updates = expand_and_evaluate(tree, leaf_id, model, params,
                                              config, rng, memo)
            for nid, value in updates:
                backup(tree, nid, value)
                if trace is not None:
                    trace.append((t, nid, value))
        forest.trees.append(tree)
        found |= correct_solutions(Forest(question.id, [tree]))
        if len(found) >= config.target_correct:
            break
    return forest


# -- (de)serialization ------------------------------------------------------

def forest_to_record(forest: Forest) -> dict:
    trees = []
    for tree in forest.trees:
        nodes = []
        for n in sorted(tree.nodes, key=lambda n: n.id):
            nodes.append({"id": n.id, "parent": n.parent, "action": n.action,
                          "N": n.N, "Q": n.Q, "prior": n.prior,
                          "terminal": n.terminal, "reward": n.reward,
                          "correct": n.correct})
        trees.append({"nodes": nodes})
    return {"question_id": forest.question_id, "labeled": forest.labeled,
            "trees": trees}


def forest_from_record(env: Env, rec: dict) -> Forest:
    question = env.question(rec["question_id"])
    forest = Forest(question_id=rec["question_id"], labeled=rec["labeled"])
    for tree_rec in rec["trees"]:
        tree = SearchTree(question_id=rec["question_id"])
        for nrec in tree_rec["nodes"]:
            parent = nrec["parent"]
            if parent is None:
                state = env.initial_state(question)
            else:
                parent_state = tree.nodes[parent].state
                state = env.transition(parent_state,
                                       env.action(nrec["action"]))
            node = tree.add_node(parent, nrec["action"], state, nrec["prior"],
                                 terminal=nrec["terminal"],
                                 reward=nrec["reward"])
            node.N = nrec["N"]
            node.Q = nrec["Q"]
            node.correct = nrec["correct"]
            if node.id != nrec["id"]:
                raise ValueError("forest dump ids are not arena-ordered")
        forest.trees.append(tree)
    return forest


def save_forests(forests: list[Forest], path: str | Path) -> None:
    with open(path, "w") as fh:
        for forest in forests:
            fh.write(json.dumps(forest_to_record(forest)) + "\n")


def load_forests(env: Env, path: str | Path) -> list[Forest]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(forest_from_record(env, json.loads(line)))
    return out
