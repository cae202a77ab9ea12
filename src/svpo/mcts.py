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

`build_forest` keeps one policy memo per forest, which holds states
only: the legal actions (the Env's tuple for the depth), probabilities
and tempered probabilities of every state the forest has evaluated,
keyed by its steps. The probabilities are stored as lists of Python
floats, since priors and draws read them one entry at a time. An
expansion walks its sampled children once, transitioning each and
collecting the ones that need a rollout; it evaluates those the memo
lacks in one batched forward (`Model.logits`, sliced to the legal ids by
`Model.legal_rows`, then `temper`) and picks each child's rollout step
with one `model.draw` call on one uniform. A node's rollout distribution
is reused when the node is expanded, and every tree after the first
reuses the states the earlier trees reached, so the policy runs at most
once per distinct state. The memo lives for one call, which has one
question and one `params`, so it never outlives the parameters it was
computed from.

Each tree reads its own generator directly: an expansion takes the
uniforms for its child picks, then those for its rollouts, each as one
`rng.random(k).tolist()` call. Every categorical draw consumes that
stream exactly as `Generator.choice` would (see `model.draw`). Nodes
hold `env.State` tuples, built once per transition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import TERMINAL, DepthExceeded, Env, Question, State
from .model import (Model, PolicyValueParams, draw, sample_distinct,
                    spawn_generator, temper)
from .records import load_jsonl, save_jsonl

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


@dataclass(slots=True)
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
        nodes = self.nodes
        node = TreeNode(len(nodes), parent, action, state, prior, 0, 0.0,
                        terminal, reward, False, [])
        if parent is not None:
            nodes[parent].children.append(node.id)
        nodes.append(node)
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
    nodes = tree.nodes
    node = nodes[0]
    while node.children:
        parent_sqrt = math.sqrt(node.N)
        best_id, best_score = -1, -math.inf
        for cid in node.children:
            child = nodes[cid]
            score = child.Q + c_puct * child.prior * parent_sqrt / (1 + child.N)
            if score > best_score:
                best_id, best_score = cid, score
        node = nodes[best_id]
    return node.id


def expand_and_evaluate(tree: SearchTree, node_id: int, model: Model,
                        params: PolicyValueParams, config: SearchConfig,
                        rng: np.random.Generator,
                        memo: dict) -> list[tuple[int, float]]:
    """Create sampled children of a non-terminal leaf and return the
    (node_id, leaf value) pairs the caller must back up.

    `rng` is the tree's generator; `memo` is the forest's policy memo
    (see the module docstring), and an empty dict computes every
    distribution afresh. Children are added in sampled order, each
    followed by its answering rollout grandchild. Raises AlreadyExpanded
    for a node with children or a terminal node, and env.DepthExceeded
    for a node at the Env's depth budget."""
    node = tree.nodes[node_id]
    if node.children:
        raise AlreadyExpanded(f"node {node_id} already has children")
    if node.terminal:
        raise AlreadyExpanded(f"node {node_id} is terminal")
    env = model.env
    max_depth = env.config.max_depth
    state = node.state
    if state.depth >= max_depth:
        raise DepthExceeded(f"node {node_id} is at the depth budget")
    [(legal, probs, tempered)] = _policies(model, params, [state],
                                           config.temperature, memo)
    picks = sample_distinct(
        tempered, rng.random(min(config.n_children, len(tempered))).tolist())
    # one pass over the sampled children: (action id, prior, state,
    # reward), the reward None for a child that a rollout evaluates
    children, rollout = [], []
    for i in picks:
        action = legal[i]
        child_state = env.transition(state, action)
        if action.kind == TERMINAL:
            reward = env.terminal_reward(state, action)
        elif child_state.depth >= max_depth:
            # depth cutoff without an answer counts as an incorrect terminal
            reward = -1
        else:
            reward = None
            rollout.append(child_state)
        children.append((action.id, probs[i], child_state, reward))
    if rollout:
        policies = iter(zip(
            _policies(model, params, rollout, config.temperature, memo),
            rng.random(len(rollout)).tolist()))
    add_node = tree.add_node
    results: list[tuple[int, float]] = []
    for aid, prior, child_state, reward in children:
        if reward is not None:
            child = add_node(node_id, aid, child_state, prior, True, reward)
            results.append((child.id, float(reward)))
            continue
        child = add_node(node_id, aid, child_state, prior)
        (r_legal, r_probs, r_tempered), u = next(policies)
        r_idx = draw(r_tempered, u)
        r_action = r_legal[r_idx]
        if r_action.kind == TERMINAL:
            reward = env.terminal_reward(child_state, r_action)
            grand = add_node(child.id, r_action.id,
                             env.transition(child_state, r_action),
                             r_probs[r_idx], True, reward)
            results.append((grand.id, float(reward)))
        else:
            results.append((child.id, 0.0))
    return results


def _policies(model: Model, params: PolicyValueParams, states,
              temperature: float, memo: dict) -> list[tuple]:
    """(legal actions, probabilities, tempered probabilities) of each
    state, read from the memo; the states it lacks get one batched
    forward. They sit at one depth (a node, or the rollout children of
    one node), so one `Model.legal_rows` call slices all their logits.
    Both rows are softmaxes of the logits on the legal set (no mask
    needed), as lists of floats; one list at temperature 1."""
    missing = [s for s in states if s.steps not in memo]
    if missing:
        logits, _, _ = model.logits(params, missing)
        legal, logits = model.legal_rows(missing[0], logits)
        probs = temper(logits, 1.0).tolist()
        tempered = (probs if temperature == 1.0
                    else temper(logits, temperature).tolist())
        for state, p, t in zip(missing, probs, tempered):
            memo[state.steps] = (legal, p, t)
    return [memo[s.steps] for s in states]


def backup(tree: SearchTree, node_id: int, value: float) -> None:
    """Incremental mean update along the path from node_id to the root:
    N += 1, Q += (value - Q) / N at every node on the path."""
    nodes = tree.nodes
    cur: int | None = node_id
    while cur is not None:
        node = nodes[cur]
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
                 config: SearchConfig, rng_seed: int) -> Forest:
    """Run tree searches for one question until target_correct distinct
    correct solutions exist or max_trees is exhausted.

    Tree t draws from an independent generator seeded by (rng_seed, t), so
    forests are reproducible and trees are order-independent; the trees
    share one policy memo, whose entries depend only on the state.
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
        forest.trees.append(tree)
        found |= correct_solutions(Forest(question.id, [tree]))
        if len(found) >= config.target_correct:
            break
    return forest


# -- (de)serialization ------------------------------------------------------

def forest_to_record(forest: Forest) -> dict:
    trees = [{"nodes": [{"id": n.id, "parent": n.parent, "action": n.action,
                         "N": n.N, "Q": n.Q, "prior": n.prior,
                         "terminal": n.terminal, "reward": n.reward,
                         "correct": n.correct} for n in tree.nodes]}
             for tree in forest.trees]
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
    save_jsonl(map(forest_to_record, forests), path)


def load_forests(env: Env, path: str | Path) -> list[Forest]:
    return [forest_from_record(env, rec) for rec in load_jsonl(path)]
