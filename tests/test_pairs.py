"""Pair extraction tests: labeling, the per-tree walk, kind classification,
loser bookkeeping, value targets, and solution ranking."""
import hashlib
import json

import numpy as np
import pytest

from svpo.env import TERMINAL, Env, EnvConfig, Question, gen_dataset
from svpo.mcts import Forest, SearchConfig, SearchTree, build_forest
from svpo.model import Model
from svpo.pairs import (
    COUSIN, SIBLING, TERMINAL_KIND, PairCounts, PreferencePair, UnlabeledForest,
    classify_kind, extract_pairs, extract_sft_solutions, extract_value_targets,
    label_correct, load_pairs, load_solutions, load_value_targets,
    pair_from_record, pair_to_record, positive_negative_ratio, save_pairs,
    save_solutions, save_value_targets,
)


def handcraft_forest(env, question, tree_specs):
    """Build a forest from explicit node lists. Each spec entry is
    (steps, Q, N); parents must precede children. Terminality and reward
    follow the environment rules."""
    forest = Forest(question_id=question.id)
    for spec in tree_specs:
        tree = SearchTree(question_id=question.id)
        tree.add_node(None, None, env.initial_state(question), 1.0)
        index = {(): 0}
        for steps, q_val, n_val in spec:
            steps = tuple(steps)
            parent = tree.nodes[index[steps[:-1]]]
            action = env.vocab[steps[-1]]
            state = env.transition(parent.state, action)
            terminal = action.kind == TERMINAL
            reward = env.terminal_reward(parent.state, action) if terminal else None
            node = tree.add_node(parent.id, action.id, state, prior=0.2,
                                 terminal=terminal, reward=reward)
            node.Q, node.N = q_val, n_val
            index[steps] = node.id
        forest.trees.append(tree)
    return forest


@pytest.fixture()
def simple():
    env = Env()
    q = Question(id=50, start=5, chain=(1, 0), truth=8, difficulty="easy")
    env.register([q])
    add1 = next(a.id for a in env.vocab if a.name == "add+1")
    add2 = next(a.id for a in env.vocab if a.name == "add+2")
    add3 = next(a.id for a in env.vocab if a.name == "add+3")
    ans0 = next(a.id for a in env.vocab if a.name == "ans+0")
    ans1 = next(a.id for a in env.vocab if a.name == "ans+1")
    return env, q, dict(add1=add1, add2=add2, add3=add3, ans0=ans0, ans1=ans1)


def test_label_correct_marks_ancestors_of_correct_terminals(simple):
    env, q, a = simple
    # 5 -> +2 -> +1 -> ans0 hits truth 8; the +1 branch answers 6, wrong
    forest = handcraft_forest(env, q, [[
        ((a["add2"],), 0.5, 4),
        ((a["add2"], a["add1"]), 0.6, 3),
        ((a["add2"], a["add1"], a["ans0"]), 1.0, 2),
        ((a["add1"],), -0.2, 2),
        ((a["add1"], a["ans0"]), -1.0, 1),
    ]])
    tree = forest.trees[0]
    assert tree.nodes[5].reward == -1
    tree.nodes[4].correct = True  # stale label must be cleared
    label_correct(forest)
    assert forest.labeled
    flags = [n.correct for n in tree.nodes]
    assert flags == [True, True, True, True, False, False]
    label_correct(forest)
    assert [n.correct for n in tree.nodes] == flags


def test_winner_is_argmax_q_with_lowest_id_ties(simple):
    env, q, a = simple
    forest = handcraft_forest(env, q, [[
        ((a["add1"],), 0.4, 3),
        ((a["add1"], a["add2"]), 0.4, 2),
        ((a["add1"], a["add2"], a["ans0"]), 1.0, 1),
        ((a["add2"],), 0.4, 3),
        ((a["add2"], a["add1"]), 0.4, 2),
        ((a["add2"], a["add1"], a["ans0"]), 1.0, 1),
        ((a["add3"],), -0.5, 1),
    ]])
    label_correct(forest)
    pairs = extract_pairs(forest, PairCounts(), rng_seed=0)
    # both top-level branches are correct with Q 0.4: the tie goes to the
    # lower node id, the add1 branch created first
    assert all(p.winner[0] == a["add1"] for p in pairs)


def test_sibling_and_terminal_kinds_with_forced_draws(simple):
    env, q, a = simple
    # 5 -> +3 -> ans0 is correct; one wrong op branch and one wrong answer
    # leave exactly one sibling and one terminal candidate at level 1,
    # both consumed there, so the walk's later levels starve
    forest = handcraft_forest(env, q, [[
        ((a["add3"],), 0.9, 4),
        ((a["add3"], a["ans0"]), 1.0, 2),
        ((a["add3"], a["ans1"]), -1.0, 1),
        ((a["add1"],), -0.1, 1),
    ]])
    label_correct(forest)
    pairs = extract_pairs(forest, PairCounts(), rng_seed=3)
    got = {(p.kind, p.winner, p.loser) for p in pairs}
    w1 = (a["add3"],)
    expected = {
        (SIBLING, w1, (a["add1"],)),
        (TERMINAL_KIND, w1, (a["add3"], a["ans1"])),
    }
    assert got == expected
    levels = {p.kind: p.level for p in pairs}
    assert levels[SIBLING] == 0 and levels[TERMINAL_KIND] == 1


def test_cousin_kind_with_forced_draw(simple):
    env, q, a = simple
    # the level-1 terminal pool is empty (the wrong branch never answers),
    # so its depth-2 internal node survives to serve as the only cousin
    forest = handcraft_forest(env, q, [[
        ((a["add3"],), 0.9, 4),
        ((a["add3"], a["ans0"]), 1.0, 2),
        ((a["add1"],), -0.1, 2),
        ((a["add1"], a["add1"]), -0.05, 1),
    ]])
    label_correct(forest)
    pairs = extract_pairs(forest, PairCounts(), rng_seed=3)
    got = {(p.kind, p.winner, p.loser) for p in pairs}
    expected = {
        (SIBLING, (a["add3"],), (a["add1"],)),
        (COUSIN, (a["add3"], a["ans0"]), (a["add1"], a["add1"])),
    }
    assert got == expected
    cousin = next(p for p in pairs if p.kind == COUSIN)
    assert cousin.level == 0 and len(cousin.winner) == len(cousin.loser)


def test_loser_reuse_forbidden_within_question(simple):
    env, q, a = simple
    forest = handcraft_forest(env, q, [[
        ((a["add2"],), 0.7, 5),
        ((a["add2"], a["add1"]), 0.8, 4),
        ((a["add2"], a["add1"], a["ans0"]), 1.0, 3),
        ((a["add1"],), -0.1, 2),
        ((a["add1"], a["ans1"]), -1.0, 1),
    ]])
    label_correct(forest)
    pairs = extract_pairs(forest, PairCounts(), rng_seed=1)
    losers = [(p.loser, p.kind) for p in pairs]
    assert len(losers) == len(set(losers)) == len(pairs)
    # the two non-correct nodes each appear exactly once overall
    flat = [p.loser for p in pairs]
    assert sorted(flat) == sorted({tuple(x) for x in flat})


def test_cross_tree_fallback_borrows_sibling_like_loser(simple):
    env, q, a = simple
    bare = [
        ((a["add2"],), 0.9, 3),
        ((a["add2"], a["add1"]), 0.9, 2),
        ((a["add2"], a["add1"], a["ans0"]), 1.0, 1),
    ]
    donor = [
        ((a["add3"],), -0.3, 2),
        ((a["add3"], a["ans1"]), -1.0, 1),
    ]
    forest = handcraft_forest(env, q, [bare, donor])
    label_correct(forest)
    pairs = extract_pairs(forest, PairCounts(), rng_seed=5)
    lvl1 = [p for p in pairs if len(p.winner) == 1]
    assert len(lvl1) == 1
    assert lvl1[0].kind == SIBLING and lvl1[0].loser == (a["add3"],)
    assert lvl1[0].tree == 0


def test_extract_requires_labels(simple):
    env, q, a = simple
    forest = handcraft_forest(env, q, [[((a["add2"],), 0.5, 1)]])
    with pytest.raises(UnlabeledForest):
        extract_pairs(forest, PairCounts(), rng_seed=0)
    with pytest.raises(UnlabeledForest):
        extract_sft_solutions(env, forest, 4)


def test_classify_kind():
    assert classify_kind((1, 2), (1, 3)) == SIBLING
    assert classify_kind((1, 2, 4), (1, 3, 4)) == COUSIN
    assert classify_kind((1, 2), (1, 3, 9)) == TERMINAL_KIND
    assert classify_kind((1, 2, 5), (1,)) == TERMINAL_KIND


@pytest.fixture(scope="module")
def searched_corpus():
    questions = gen_dataset(seed=31, n=60, difficulty="medium")
    env = Env(questions=questions)
    model = Model(env)
    params = model.init_params(seed=0)
    forests = [label_correct(build_forest(model, q, params, SearchConfig(),
                                          rng_seed=q.id))
               for q in questions]
    return env, questions, forests


def test_pair_invariants_on_searched_forests(searched_corpus):
    env, questions, forests = searched_corpus
    total = 0
    for q, forest in zip(questions, forests):
        pairs = extract_pairs(forest, PairCounts(), rng_seed=17)
        nodes_by_steps = [
            {n.state.steps: n for n in tree.nodes} for tree in forest.trees]
        for p in pairs:
            total += 1
            assert p.question_id == q.id
            assert p.kind == classify_kind(p.winner, p.loser)
            # prefixes replay legally
            env.replay(q, p.winner)
            env.replay(q, p.loser)
            wnode = nodes_by_steps[p.tree][p.winner]
            assert wnode.correct and wnode.Q == p.q_w
            if p.kind == TERMINAL_KIND:
                assert len(p.winner) != len(p.loser)
            else:
                assert len(p.winner) == len(p.loser)
            assert p.winner[:p.level] == p.loser[:p.level]
            if p.level < min(len(p.winner), len(p.loser)):
                assert p.winner[p.level] != p.loser[p.level]
    assert total > 100


def test_pair_extraction_deterministic(searched_corpus):
    env, questions, forests = searched_corpus
    forest = forests[0]
    a = extract_pairs(forest, PairCounts(), rng_seed=99)
    b = extract_pairs(forest, PairCounts(), rng_seed=99)
    assert a == b
    c = extract_pairs(forest, PairCounts(), rng_seed=100)
    assert [(p.winner, p.loser) for p in a] != [(p.winner, p.loser) for p in c]


def test_golden_pairs(searched_corpus):
    """Pins the pairs of the searched forests record by record, with the
    default counts and with two losers of each kind per level, so draws
    of k > 1 are pinned too."""
    _, _, forests = searched_corpus
    golden = [
        (PairCounts(), 2684, "9f9a98d36c00829bdfedb2a704e2c9ca"
                             "fa116d5ad18160316d6bb419c7e31713"),
        (PairCounts(2, 2, 2), 3896, "e30acf3cb50b3478a0cbfceddd2d7d6f"
                                    "ffbfa89881972a0a5000ce4926b752ae"),
    ]
    for counts, n_pairs, digest in golden:
        records = [pair_to_record(p) for f in forests
                   for p in extract_pairs(f, counts, rng_seed=5)]
        assert len(records) == n_pairs
        assert hashlib.sha256(
            json.dumps(records).encode()).hexdigest() == digest


def test_ratio_near_one_to_four(searched_corpus):
    env, questions, forests = searched_corpus
    all_pairs = []
    for forest in forests:
        all_pairs.extend(extract_pairs(forest, PairCounts(), rng_seed=7))
    ratio = positive_negative_ratio(all_pairs)
    assert 3.2 <= ratio <= 4.8


def test_value_targets_follow_terminality(simple):
    env, q, a = simple
    forest = handcraft_forest(env, q, [[
        ((a["add2"],), 0.25, 4),
        ((a["add2"], a["add1"]), 0.5, 3),
        ((a["add2"], a["add1"], a["ans0"]), 1.0, 2),
        ((a["add2"], a["add1"], a["ans1"]), -1.0, 1),
    ]])
    targets = extract_value_targets(forest)
    by_prefix = {t.prefix: t.target for t in targets}
    assert by_prefix[(a["add2"],)] == 0.25
    assert by_prefix[(a["add2"], a["add1"])] == 0.5
    assert by_prefix[(a["add2"], a["add1"], a["ans0"])] == 1.0
    assert by_prefix[(a["add2"], a["add1"], a["ans1"])] == -1.0
    assert () not in by_prefix and len(targets) == 4


def test_value_targets_cover_all_visited_nodes(searched_corpus):
    env, questions, forests = searched_corpus
    forest = forests[1]
    targets = extract_value_targets(forest)
    n_nonroot = sum(len(t.nodes) - 1 for t in forest.trees)
    assert len(targets) == n_nonroot
    for t in targets:
        assert -1.0 <= t.target <= 1.0


def test_sft_solutions_ranked_and_distinct(simple):
    env, q, a = simple
    # two correct paths; the +2,+1 path has the higher mean Q and a
    # duplicate in the second tree that must collapse
    strong = [
        ((a["add2"],), 0.8, 5),
        ((a["add2"], a["add1"]), 0.9, 4),
        ((a["add2"], a["add1"], a["ans0"]), 1.0, 3),
    ]
    weak = [
        ((a["add1"],), 0.1, 3),
        ((a["add1"], a["add2"]), 0.2, 2),
        ((a["add1"], a["add2"], a["ans0"]), 1.0, 1),
    ]
    forest = handcraft_forest(env, q, [strong + weak, strong])
    label_correct(forest)
    sols = extract_sft_solutions(env, forest, 4)
    assert len(sols) == 2
    assert sols[0].steps == (a["add2"], a["add1"], a["ans0"])
    assert sols[1].steps == (a["add1"], a["add2"], a["ans0"])
    assert all(s.correct and s.predicted == q.truth for s in sols)
    only_one = extract_sft_solutions(env, forest, 1)
    assert [s.steps for s in only_one] == [sols[0].steps]


def test_sft_ties_rank_by_tree_and_node_id(simple):
    """Path Qs that are permutations of each other tie exactly (math.fsum),
    so the earlier (tree, node id) ranks first. Plain float addition
    gives 0.3 + 0.2 + 0.1 = 0.6 but 0.1 + 0.2 + 0.3 = 0.6000000000000001,
    and Python 3.12 changed how `sum` adds them."""
    env, q, a = simple
    first = [
        ((a["add1"],), 0.3, 1),
        ((a["add1"], a["add2"]), 0.2, 1),
        ((a["add1"], a["add2"], a["ans0"]), 0.1, 1),
    ]
    second = [
        ((a["add2"],), 0.1, 1),
        ((a["add2"], a["add1"]), 0.2, 1),
        ((a["add2"], a["add1"], a["ans0"]), 0.3, 1),
    ]
    forest = label_correct(handcraft_forest(env, q, [first, second]))
    sols = extract_sft_solutions(env, forest, 2)
    assert [s.steps for s in sols] == [(a["add1"], a["add2"], a["ans0"]),
                                       (a["add2"], a["add1"], a["ans0"])]


def test_sft_solutions_from_search_are_correct(searched_corpus):
    env, questions, forests = searched_corpus
    for q, forest in zip(questions[:20], forests[:20]):
        for sol in extract_sft_solutions(env, forest, 4):
            assert env.solution_reward(q, sol.steps) == 1


def test_pair_serialization_round_trip(searched_corpus, tmp_path):
    env, questions, forests = searched_corpus
    pairs = extract_pairs(forests[2], PairCounts(), rng_seed=1)
    path = tmp_path / "pairs.jsonl"
    save_pairs(pairs, path)
    loaded = load_pairs(path)
    assert loaded == pairs
    rec = json.loads(path.read_text().split("\n")[0])
    assert list(rec) == ["question_id", "winner", "loser", "kind", "q_w",
                         "q_l", "level", "tree"]
    assert pair_from_record(rec) == loaded[0]


def test_target_and_solution_serialization(searched_corpus, tmp_path):
    env, questions, forests = searched_corpus
    targets = extract_value_targets(forests[0])
    tpath = tmp_path / "targets.jsonl"
    save_value_targets(targets, tpath)
    assert load_value_targets(tpath) == targets
    sols = extract_sft_solutions(env, forests[0], 4)
    spath = tmp_path / "solutions.jsonl"
    save_solutions(sols, spath)
    assert load_solutions(spath) == sols


def test_pair_counts_validation():
    with pytest.raises(ValueError):
        PairCounts(n_sibling=-1)
