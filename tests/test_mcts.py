"""Tree search tests: PUCT numerics, expansion values, backup arithmetic,
replay-log bookkeeping, determinism, and dump/load fidelity."""
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from svpo import env as envmod
from svpo import mcts
from svpo.env import Env, EnvConfig, Question, TERMINAL, gen_dataset
from svpo.mcts import (
    AlreadyExpanded, DepthExceeded, Forest, SearchConfig, SearchTree,
    backup, build_forest, correct_solutions, expand_and_evaluate,
    forest_from_record, forest_to_record, label_correct, load_forests,
    new_tree, save_forests, select,
)
from svpo.model import Model, spawn_generator

from oracles import puct_score, reference_forest, scripted_params


@pytest.fixture()
def toy():
    questions = gen_dataset(seed=21, n=5, difficulty="easy")
    env = Env(questions=questions)
    return env, Model(env), questions


def find_action(env, name):
    return next(a for a in env.vocab if a.name == name)


def test_puct_prefers_unvisited_child_with_equal_q(toy):
    env, model, questions = toy
    tree = new_tree(env, questions[0])
    root = tree.root
    s = env.initial_state(questions[0])
    a = tree.add_node(0, 0, env.transition(s, env.vocab[0]), prior=0.5)
    b = tree.add_node(0, 1, env.transition(s, env.vocab[1]), prior=0.5)
    a.N, a.Q = 10, 0.0
    b.N, b.Q = 0, 0.0
    root.N = 10
    # bonus for a: 1.25 * 0.5 * sqrt(10) / 11 ; for b: 1.25 * 0.5 * sqrt(10)
    assert puct_score(a, 10, 1.25) == pytest.approx(1.25 * 0.5 * math.sqrt(10) / 11)
    assert puct_score(b, 10, 1.25) == pytest.approx(1.25 * 0.5 * math.sqrt(10))
    assert select(tree, 1.25) == b.id


def test_puct_exploitation_wins_when_bonus_small(toy):
    env, model, questions = toy
    tree = new_tree(env, questions[0])
    s = env.initial_state(questions[0])
    a = tree.add_node(0, 0, env.transition(s, env.vocab[0]), prior=0.5)
    b = tree.add_node(0, 1, env.transition(s, env.vocab[1]), prior=0.5)
    a.N, a.Q = 5, 0.9
    b.N, b.Q = 5, -0.9
    tree.root.N = 10
    assert select(tree, 1.25) == a.id


def test_puct_tie_breaks_to_lowest_child_index(toy):
    env, model, questions = toy
    tree = new_tree(env, questions[0])
    s = env.initial_state(questions[0])
    first = tree.add_node(0, 0, env.transition(s, env.vocab[0]), prior=0.3)
    tree.add_node(0, 1, env.transition(s, env.vocab[1]), prior=0.3)
    tree.root.N = 4
    assert select(tree, 1.25) == first.id


def test_select_descends_to_deep_leaf(toy):
    env, model, questions = toy
    q = questions[0]
    tree = new_tree(env, q)
    s = env.initial_state(q)
    c = tree.add_node(0, 0, env.transition(s, env.vocab[0]), prior=1.0)
    g = tree.add_node(c.id, 1, env.transition(c.state, env.vocab[1]), prior=1.0)
    tree.root.N, c.N = 2, 1
    assert select(tree, 1.25) == g.id


def test_expand_terminal_child_value_is_reward(toy):
    env, model, questions = toy
    q = Question(id=700, start=5, chain=(1,), truth=7, difficulty="easy")
    env.register([q])
    tree = new_tree(env, q)
    add2 = find_action(env, "add+2")
    child = tree.add_node(0, add2.id, env.transition(tree.root.state, add2),
                          prior=1.0)
    ans0 = find_action(env, "ans+0")
    params = scripted_params(model, {1: ans0.id}, logit=25.0)
    results = expand_and_evaluate(tree, child.id, model, params,
                                  SearchConfig(), spawn_generator(0), {})
    by_node = {nid: v for nid, v in results}
    ans_nodes = [n for n in tree.nodes
                 if n.action == ans0.id and n.parent == child.id]
    assert len(ans_nodes) == 1
    ans_node = ans_nodes[0]
    assert ans_node.terminal and ans_node.reward == 1
    assert by_node[ans_node.id] == 1.0
    # priors are untempered policy probabilities over the legal set: sum <= 1
    priors = [tree.nodes[c].prior for c in child.children]
    assert 0 < sum(priors) <= 1.0 + 1e-12


def test_expand_rollout_terminal_kept_as_grandchild(toy):
    env, model, questions = toy
    q = Question(id=701, start=5, chain=(1,), truth=7, difficulty="easy")
    env.register([q])
    tree = new_tree(env, q)
    ans0 = find_action(env, "ans+0")
    add2 = find_action(env, "add+2")
    params = scripted_params(model, {1: ans0.id}, logit=25.0)
    results = expand_and_evaluate(tree, 0, model, params, SearchConfig(),
                                  spawn_generator(1), {})
    assert len(results) == 5  # five distinct ops sampled at the root
    for nid, value in results:
        node = tree.nodes[nid]
        # every backed node is a rollout answer kept under its op child
        assert node.terminal and node.action == ans0.id
        parent = tree.nodes[node.parent]
        assert parent.parent == 0 and node.id in parent.children
        expect = 1.0 if parent.action == add2.id else -1.0
        assert value == expect and node.reward == expect


def test_expand_nonterminal_rollout_backs_up_zero(toy):
    env, model, questions = toy
    q = Question(id=702, start=5, chain=(1,), truth=7, difficulty="easy")
    env.register([q])
    tree = new_tree(env, q)
    add1 = find_action(env, "add+1")
    params = scripted_params(model, {1: add1.id}, logit=25.0)
    results = expand_and_evaluate(tree, 0, model, params, SearchConfig(),
                                  spawn_generator(2), {})
    assert len(results) == 5
    for nid, value in results:
        node = tree.nodes[nid]
        assert not node.terminal and node.parent == 0
        assert value == 0.0 and not node.children


def test_expand_depth_cutoff_is_incorrect_terminal(toy):
    env, model, questions = toy
    cfg = EnvConfig(max_depth=2)
    small_env = Env(cfg)
    q = Question(id=703, start=3, chain=(0,), truth=4, difficulty="easy")
    small_env.register([q])
    small_model = Model(small_env)
    tree = new_tree(small_env, q)
    add1 = find_action(small_env, "add+1")
    child = tree.add_node(0, add1.id,
                          small_env.transition(tree.root.state, add1), 1.0)
    params = small_model.zeros_params()
    results = expand_and_evaluate(tree, child.id, small_model, params,
                                  SearchConfig(), spawn_generator(3), {})
    assert results
    for nid, value in results:
        node = tree.nodes[nid]
        assert node.state.depth == 2 and node.terminal
        if small_env.vocab[node.action].kind == TERMINAL:
            assert node.reward == (1 if value == 1.0 else -1)
        else:
            assert node.reward == -1 and value == -1.0


def test_expand_errors(toy):
    env, model, questions = toy
    q = questions[0]
    tree = new_tree(env, q)
    params = model.zeros_params()
    cfg = SearchConfig()
    expand_and_evaluate(tree, 0, model, params, cfg, spawn_generator(4), {})
    with pytest.raises(AlreadyExpanded):
        expand_and_evaluate(tree, 0, model, params, cfg,
                            spawn_generator(5), {})
    # a non-terminal node parked at the depth budget cannot be expanded
    deep_state = tree.root.state
    for _ in range(env.config.max_depth):
        deep_state = env.transition(deep_state, env.vocab[0])
    deep = tree.add_node(0, env.vocab[0].id, deep_state, 0.1)
    with pytest.raises(DepthExceeded):
        expand_and_evaluate(tree, deep.id, model, params, cfg,
                            spawn_generator(6), {})


def test_backup_incremental_mean_exact(toy):
    env, model, questions = toy
    q = questions[0]
    tree = new_tree(env, q)
    child = tree.add_node(0, 0, env.transition(tree.root.state, env.vocab[0]),
                          prior=1.0)
    child.N, child.Q = 2, 0.5
    tree.root.N, tree.root.Q = 2, 0.5
    backup(tree, child.id, -1.0)
    assert child.N == 3 and child.Q == pytest.approx(0.0, abs=1e-15)
    assert tree.root.N == 3 and tree.root.Q == pytest.approx(0.0, abs=1e-15)


def test_backup_updates_whole_path_only(toy):
    env, model, questions = toy
    q = questions[0]
    tree = new_tree(env, q)
    s = env.initial_state(q)
    a = tree.add_node(0, 0, env.transition(s, env.vocab[0]), 1.0)
    b = tree.add_node(0, 1, env.transition(s, env.vocab[1]), 1.0)
    g = tree.add_node(a.id, 1, env.transition(a.state, env.vocab[1]), 1.0)
    backup(tree, g.id, 1.0)
    assert (g.N, a.N, tree.root.N, b.N) == (1, 1, 1, 0)
    assert g.Q == a.Q == tree.root.Q == 1.0 and b.Q == 0.0


def test_bookkeeping_matches_backup_trace(toy, monkeypatch):
    """Replay-log oracle: for every node, N equals the number of traced
    backups passing through it and Q*N equals their value sum. A wrapper
    on the module global `backup` records the trace."""
    env, model, questions = toy
    params = model.init_params(seed=0)
    trace = []

    def traced(tree, node_id, value):
        trace.append((tree, node_id, value))
        backup(tree, node_id, value)

    monkeypatch.setattr(mcts, "backup", traced)
    for q in questions:
        trace.clear()
        forest = build_forest(model, q, params, SearchConfig(), rng_seed=q.id)
        sums, counts = {}, {}
        for tree, nid, value in trace:
            for pid in tree.path_ids(nid):
                key = id(tree), pid
                sums[key] = sums.get(key, 0.0) + value
                counts[key] = counts.get(key, 0) + 1
        assert len({id(tree) for tree, _, _ in trace}) == len(forest.trees)
        for tree in forest.trees:
            for node in tree.nodes:
                key = id(tree), node.id
                assert node.N == counts.get(key, 0)
                assert abs(node.Q * node.N - sums.get(key, 0.0)) < 1e-9


def test_visit_counts_monotone(toy):
    env, model, questions = toy
    params = model.init_params(seed=1)
    forest = build_forest(model, questions[0], params, SearchConfig(),
                          rng_seed=3)
    for tree in forest.trees:
        for node in tree.nodes:
            child_total = sum(tree.nodes[c].N for c in node.children)
            assert node.N >= child_total


def test_build_forest_deterministic(toy):
    env, model, questions = toy
    params = model.init_params(seed=2)
    a = build_forest(model, questions[1], params, SearchConfig(), rng_seed=11)
    b = build_forest(model, questions[1], params, SearchConfig(), rng_seed=11)
    assert forest_to_record(a) == forest_to_record(b)
    c = build_forest(model, questions[1], params, SearchConfig(), rng_seed=12)
    assert forest_to_record(a) != forest_to_record(c)


def test_build_forest_finds_easy_solutions_and_stops(toy):
    env, model, questions = toy
    params = model.zeros_params()
    config = SearchConfig()
    for q in questions:
        forest = build_forest(model, q, params, config, rng_seed=q.id)
        assert 1 <= len(forest.trees) <= config.max_trees
        found = correct_solutions(forest)
        assert found, f"no correct solution found for question {q.id}"
        for steps in found:
            assert env.solution_reward(q, steps) == 1
        if len(found) >= config.target_correct:
            # the stop rule never builds a tree past the one that met target
            partial = set()
            for i, tree in enumerate(forest.trees[:-1]):
                for node in tree.nodes:
                    if node.terminal and node.reward == 1:
                        partial.add(node.state.steps)
            assert len(partial) < config.target_correct


def test_q_sign_soundness_on_enumerable_env(toy):
    """Any node whose env-reachable answers are all wrong sees only values
    in {0, -1}, so its Q can never be positive."""
    env, model, questions = toy
    params = model.init_params(seed=3)
    q = questions[2]
    forest = build_forest(model, q, params, SearchConfig(), rng_seed=7)

    def reachable_rewards(state):
        rewards = set()
        frontier = [state]
        while frontier:
            s = frontier.pop()
            if s.depth >= env.config.max_depth:
                continue
            for a in env.legal_actions(s):
                if a.kind == TERMINAL:
                    rewards.add(env.terminal_reward(s, a))
                else:
                    frontier.append(env.transition(s, a))
            if rewards == {-1, 1}:
                return rewards
        return rewards

    checked = 0
    for tree in forest.trees:
        for node in tree.nodes:
            if node.terminal:
                continue
            if reachable_rewards(node.state) == {-1}:
                assert node.Q <= 0.0
                checked += 1
    # the distractor answers make all-wrong subtrees common enough to matter
    assert checked > 0


def test_root_child_q_inside_leaf_value_envelope(toy):
    """With every simulation backing either a terminal reward or a 0-valued
    rollout, each root child's Q must stay inside the envelope of its
    env-reachable rewards widened by 0."""
    cfg = EnvConfig(add_consts=(1, 2), mul_consts=(), answer_offsets=(0, 1),
                    max_depth=3)
    env = Env(cfg)
    q = Question(id=800, start=1, chain=(1, 0), truth=4, difficulty="easy")
    env.register([q])
    model = Model(env)
    params = model.zeros_params()
    forest = build_forest(model, q, params,
                          SearchConfig(max_simulations=200, max_trees=1,
                                       target_correct=99),
                          rng_seed=5)
    tree = forest.trees[0]

    def rewards_below(state):
        out = set()
        frontier = [state]
        while frontier:
            s = frontier.pop()
            if s.depth >= cfg.max_depth:
                continue
            for a in env.legal_actions(s):
                if a.kind == TERMINAL:
                    out.add(env.terminal_reward(s, a))
                else:
                    frontier.append(env.transition(s, a))
        return out

    for cid in tree.root.children:
        child = tree.nodes[cid]
        if child.terminal:
            rewards = {child.reward}
            assert child.Q == pytest.approx(child.reward)
            continue
        rewards = rewards_below(child.state) | {0.0}
        assert min(rewards) - 1e-12 <= child.Q <= max(rewards) + 1e-12


def test_forest_round_trip_and_stable_dump(toy, tmp_path):
    env, model, questions = toy
    params = model.init_params(seed=4)
    forests = [build_forest(model, q, params, SearchConfig(), rng_seed=q.id)
               for q in questions[:3]]
    forests += [label_correct(build_forest(model, q, params, SearchConfig(),
                                           rng_seed=q.id))
                for q in questions[:3]]
    path = tmp_path / "forests.jsonl"
    save_forests(forests, path)
    loaded = load_forests(env, path)
    # every node field, the derived ones (id, terminal, correct and the
    # state replayed from its parent's) included, equals the saved node's
    def fields(forest):
        return forest.labeled, [
            [(n.id, n.parent, n.action, n.N, n.Q, n.prior, n.terminal,
              n.reward, n.correct, n.state) for n in tree.nodes]
            for tree in forest.trees]
    assert [fields(f) for f in loaded] == [fields(f) for f in forests]
    assert any(n.correct for f in loaded for t in f.trees for n in t.nodes)
    path2 = tmp_path / "forests2.jsonl"
    save_forests(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    rec = forest_to_record(forests[0])
    assert list(rec["trees"][0]) == ["parent", "action", "N", "Q", "prior",
                                     "reward"]


@pytest.mark.parametrize("column, node, value", [
    ("parent", 0, 0),        # node 0 is not the root
    ("reward", 0, 1),        # a root with a reward
    ("action", 0, 2),        # a root with an action
    ("parent", 3, None),     # a later node has no parent
    ("parent", 3, -1),       # a negative parent
    ("parent", 3, 3),        # a parent at or after the node
    ("Q", -1, "drop"),       # a column shorter than the others
    ("action", 3, None),     # a missing action
    ("action", 3, 99),       # an action outside the vocabulary
])
def test_forest_from_record_refuses_broken_structure(toy, column, node,
                                                     value):
    env, model, questions = toy
    q = questions[0]
    rec = forest_to_record(label_correct(build_forest(
        model, q, model.init_params(seed=4), SearchConfig(), rng_seed=1)))
    tree = rec["trees"][0]
    node %= len(tree[column])
    if value == "drop":
        del tree[column][node]
    else:
        tree[column][node] = value
    with pytest.raises(ValueError,
                       match=rf"^question {q.id}, tree 0, node {node}: "):
        forest_from_record(env, rec)


@pytest.mark.parametrize("key", ["labeled", "trees"])
def test_forest_from_record_refuses_a_missing_key(toy, key):
    env, model, questions = toy
    q = questions[0]
    rec = forest_to_record(label_correct(build_forest(
        model, q, model.init_params(seed=4), SearchConfig(), rng_seed=1)))
    del rec[key]
    with pytest.raises(ValueError,
                       match=rf"^question {q.id}: no '{key}' key$"):
        forest_from_record(env, rec)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(c_puct=0)
    with pytest.raises(ValueError):
        SearchConfig(temperature=0)
    with pytest.raises(ValueError):
        SearchConfig(n_children=0)


def test_depth_exceeded_is_the_env_class():
    # one class, so a caller catching the Env's error also catches search's
    assert DepthExceeded is envmod.DepthExceeded


@pytest.mark.parametrize("difficulty", ["easy", "hard"])
def test_build_forest_matches_choice_reference(difficulty):
    """The samplers, the batched expansion and the per-forest policy memo
    leave every forest as the choice-based, memo-free expansion builds it
    one state at a time. Priors may differ in the last bits, because a
    batched matrix product rounds differently from a one-row one."""
    questions = gen_dataset(seed=31, n=3, difficulty=difficulty)
    env = Env(questions=questions)
    model = Model(env)
    for p_seed, scale in ((0, 0.05), (1, 1.0)):
        params = model.init_params(seed=p_seed, scale=scale)
        for temperature in (1.0, 0.7):
            config = SearchConfig(temperature=temperature)
            for q in questions:
                got = build_forest(model, q, params, config, rng_seed=q.id)
                want = reference_forest(model, q, params, config,
                                        rng_seed=q.id)
                got, got_priors = _split_priors(forest_to_record(got))
                want, want_priors = _split_priors(forest_to_record(want))
                assert got == want
                np.testing.assert_allclose(got_priors, want_priors,
                                           rtol=1e-12, atol=0)


def _split_priors(record):
    """(the forest record without priors, its priors in node order)."""
    priors = [p for tree in record["trees"] for p in tree.pop("prior")]
    return record, priors


def test_build_forest_evaluates_each_state_once(toy, monkeypatch):
    env, model, questions = toy
    params = model.init_params(seed=5, scale=0.5)
    calls = []
    inner = model.logits

    def counted(p, states):
        calls.extend(state.steps for state in states)
        return inner(p, states)

    monkeypatch.setattr(model, "logits", counted)
    config = SearchConfig(target_correct=99)  # build every tree
    for q in questions[:3]:
        calls.clear()
        forest = build_forest(model, q, params, config, rng_seed=q.id)
        assert len(forest.trees) == config.max_trees
        assert calls and len(calls) == len(set(calls))
        # the memo spans trees: later roots are not evaluated again
        assert calls.count(()) == 1


def test_unit_temperature_prior_row_is_the_sampling_row(toy):
    """At temperature 1 every memo entry keeps one list as its prior row
    and its sampling row, and the rows of a depth-0 and a deeper state
    are exp of policy_value's log-probs on the legal ids."""
    env, model, questions = toy
    params = model.init_params(seed=5, scale=0.5)
    tree = new_tree(env, questions[0])
    memo = {}
    expand_and_evaluate(tree, 0, model, params, SearchConfig(),
                        spawn_generator(3), memo)
    rows = list(memo.values())
    assert len(rows) > 1
    assert all(tempered is probs for _, probs, tempered in rows)
    root = tree.root
    for node in (root, tree.nodes[root.children[0]]):
        legal, logprobs = model.legal_logprobs(params, node.state)
        got_legal, probs, _ = memo[node.state.steps]
        assert got_legal == legal
        np.testing.assert_allclose(probs, np.exp(logprobs), rtol=1e-14,
                                   atol=0)
    legal, probs, _ = memo[root.state.steps]
    ids = [a.id for a in legal]
    for cid in root.children:
        child = tree.nodes[cid]
        assert child.prior == probs[ids.index(child.action)]


_FRESH_FOREST = """
import json, sys
from svpo.env import Env, gen_dataset
from svpo.mcts import SearchConfig, build_forest, forest_to_record
from svpo.model import Model
q = gen_dataset(seed=21, n=5, difficulty="easy")[1]
model = Model(Env(questions=[q]))
params = model.init_params(seed=int(sys.argv[1]), scale=1.0)
print(json.dumps(forest_to_record(
    build_forest(model, q, params, SearchConfig(), rng_seed=3))))
"""


def test_forests_do_not_depend_on_earlier_params(toy):
    """Successive forests under changing params (as between training
    stages) equal forests built in fresh processes."""
    env, model, questions = toy
    here = [json.dumps(forest_to_record(build_forest(
        model, questions[1], model.init_params(seed=s, scale=1.0),
        SearchConfig(), rng_seed=3))) for s in (7, 8, 7)]
    assert here[0] != here[1] and here[0] == here[2]
    for p_seed, got in zip((7, 8), here):
        fresh = subprocess.run([sys.executable, "-c", _FRESH_FOREST,
                                str(p_seed)], capture_output=True,
                               text=True, check=True)
        assert fresh.stdout.strip() == got


def _structure_digest(forest):
    """sha256 of every node's (parent, action, N, Q, terminal, reward) in
    tree and arena order. Priors are left out: their last bits follow
    the BLAS build."""
    nodes = [[n.parent, n.action, n.N, repr(n.Q), n.terminal, n.reward]
             for tree in forest.trees for n in tree.nodes]
    return hashlib.sha256(json.dumps(nodes).encode()).hexdigest()


def test_golden_forest_structure():
    """Pins two seeded hard forests node by node. Unlike the choice
    reference, which shares `select`, `backup` and `new_tree` with the
    code under test, this catches a fault in those too."""
    questions = gen_dataset(seed=2, n=2, difficulty="hard")
    model = Model(Env(questions=questions))
    params = model.init_params(seed=1)
    golden = [
        (5, 127, "b5d649f5054b56a06e6cdd769c1bc139"
                 "fcb2d6d98d81bea45cee7c175b75082a"),
        (2, 156, "9d06b11410027a32131baba346a71e50"
                 "a50f0d1ad216c99ab94ec1065fc51ed8"),
    ]
    for q, (n_trees, n_nodes, digest) in zip(questions, golden):
        forest = build_forest(model, q, params, SearchConfig(),
                              rng_seed=q.id)
        assert len(forest.trees) == n_trees
        assert sum(len(tree.nodes) for tree in forest.trees) == n_nodes
        assert _structure_digest(forest) == digest


def test_build_forest_calls_the_module_globals(toy, monkeypatch):
    """build_forest looks `select`, `expand_and_evaluate` and `backup` up
    as module globals on every call, so a wrapper put there sees every
    simulation."""
    env, model, questions = toy
    params = model.init_params(seed=6, scale=0.5)
    calls = {"select": 0, "expand_and_evaluate": 0, "backup": 0}
    terminal_leaves = []
    for name in calls:
        inner = getattr(mcts, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            result = _inner(*args, **kwargs)
            if _name == "select":
                terminal_leaves.append(args[0].nodes[result].terminal)
            return result

        monkeypatch.setattr(mcts, name, counted)
    config = SearchConfig(max_simulations=30, max_trees=3, target_correct=99)
    forest = build_forest(model, questions[0], params, config, rng_seed=4)
    assert calls["select"] == len(forest.trees) * config.max_simulations
    assert calls["backup"] == sum(t.root.N for t in forest.trees) > 0
    # a simulation expands its leaf unless the leaf is terminal
    assert 0 < calls["expand_and_evaluate"] == terminal_leaves.count(False)
