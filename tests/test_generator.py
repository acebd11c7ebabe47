import numpy as np
import pytest
from helpers import (
    MixtureParams,
    augmented_edges,
    block_bits,
    block_log_likelihood,
    finite_diff,
    graph_log_likelihood,
    init_representations,
    one_hot,
    output_heads,
    reference_plan,
    rel_error,
    step_forward,
)

from condgraphgen import generator as G
from condgraphgen.autodiff import constant, gather_rows, no_grad, sigmoid
from condgraphgen.classifiers import (
    classify_nodes,
    graph_logits,
    init_graph_classifier,
    init_node_classifier,
    uniform_features,
)
from condgraphgen.graphs import Graph, block_partition, decompose
from condgraphgen.generator import (
    GeneratorConfig,
    UnionPlan,
    candidate_pairs,
    gnn_round,
    init_generator,
)

HID_H, COND, HID = 5, 3, 8


def small_config(**over):
    base = dict(
        max_nodes=8,
        block_size=2,
        num_classes=2,
        hidden_dim_h=HID_H,
        cond_dim=COND,
        mixture_k=3,
        rounds=2,
    )
    base.update(over)
    return GeneratorConfig(**base)


def small_params(seed=0, **over):
    return init_generator(small_config(**over), np.random.default_rng(seed))


def zero_params(params):
    for t in params.tensors():
        t.value[...] = 0.0
    return params


def random_ordered(rng, n, params, p=0.4):
    edges = frozenset(
        (j, i) for i in range(n) for j in range(i) if rng.random() < p
    )
    g = Graph(n, edges, tuple([0] * n), 0)
    og = decompose(g, params.config.max_nodes)
    return og


# ---------------------------------------------------------------------------
# condition vector


def test_initial_states_embed_each_graphs_class_one_hot():
    params = small_params(1, num_classes=3)
    runs = [(np.zeros((0, 8)), [(0, 1)]), (np.zeros((0, 8)), [(0,)])]
    h = G.initial_states(UnionPlan(runs), [2, 0], params).value
    wc, bc = params.cond_embed.W.value, params.cond_embed.b.value
    assert np.array_equal(h[:2, HID_H:], np.tile(wc[2] + bc, (2, 1)))
    assert np.array_equal(h[2:, HID_H:], (wc[0] + bc)[None, :])


@pytest.mark.parametrize(
    "bad", [[0.5, 0.5], [1.0, 1.0], [2.0, 0.0], [], [[1.0, 0.0]], [0.0, 0.0]]
)
def test_condition_vector_rejects_non_one_hot(bad):
    """The per-step oracle takes the class condition as a one-hot vector."""
    with pytest.raises(ValueError):
        init_representations(np.zeros((0, 8)), bad, 1, small_params(), 1)


def test_condition_vector_label_range():
    plan = UnionPlan([(np.zeros((0, 8)), [(0,)])])
    for label in (2, -1):
        with pytest.raises(ValueError, match="outside"):
            G.initial_states(plan, [label], small_params())


# ---------------------------------------------------------------------------
# initial representations


def test_init_zero_weights_gives_zero_states():
    params = zero_params(small_params())
    rows = np.zeros((2, 8))
    h, _ = init_representations(rows, one_hot(0, 2), 2, params, 2)
    assert np.all(h.value == 0.0)


def test_init_step_one_has_zero_row_part_and_shared_condition():
    params = small_params(1)
    h, x = init_representations(np.zeros((0, 8)), one_hot(1, 2), 1, params, 3)
    h = h.value
    assert h.shape == (3, HID)
    assert np.all(h[:, :HID_H] == 0.0)
    assert np.all(h[:, HID_H:] == h[0, HID_H:])
    assert np.all(x == 1.0)


def test_init_matches_direct_matrix_arithmetic():
    params = small_params(2)
    rng = np.random.default_rng(3)
    rows = (rng.random((4, 8)) < 0.3).astype(np.float64)
    rows[:, 4:] = 0.0
    c = one_hot(1, 2)
    h, x = init_representations(rows, c, 3, params, 2)

    wh, bh = params.row_embed.W.value, params.row_embed.b.value
    wc, bc = params.cond_embed.W.value, params.cond_embed.b.value
    expect_prev = rows @ wh + bh
    expect_cond = c @ wc + bc
    assert np.allclose(h.value[:4, :HID_H], expect_prev)
    assert np.all(h.value[4:, :HID_H] == 0.0)
    assert np.allclose(h.value[:, HID_H:], expect_cond)
    assert list(x) == [0, 0, 0, 0, 1, 1]


def test_init_condition_changes_only_condition_slice():
    params = small_params(4)
    rows = np.zeros((2, 8))
    rows[1, 0] = 1.0
    h0, _ = init_representations(rows, one_hot(0, 2), 2, params, 2)
    h1, _ = init_representations(rows, one_hot(1, 2), 2, params, 2)
    assert np.array_equal(h0.value[:, :HID_H], h1.value[:, :HID_H])
    assert not np.allclose(h0.value[:, HID_H:], h1.value[:, HID_H:])


def test_init_validation_errors():
    params = small_params()
    c = one_hot(0, 2)
    with pytest.raises(ValueError):
        init_representations(np.zeros((1, 8)), c, 1, params, 2)
    with pytest.raises(ValueError):
        init_representations(np.zeros((0, 8)), c, 2, params, 2)
    with pytest.raises(ValueError):
        init_representations(np.zeros((1, 7)), c, 2, params, 2)
    with pytest.raises(ValueError):
        init_representations(np.zeros((1, 8)), c, 2, params, 0)
    with pytest.raises(ValueError):
        init_representations(np.zeros((1, 8)), [0.5, 0.5], 2, params, 1)
    with pytest.raises(ValueError):
        init_representations(np.zeros((1, 8)), one_hot(0, 3), 2, params, 1)


# ---------------------------------------------------------------------------
# message passing


def test_round_identical_states_use_zero_difference_message():
    params = small_params(5)
    w = params.round_for(0)
    h = np.tile(np.linspace(-1.0, 1.0, HID), (2, 1))
    out = gnn_round(constant(h.copy()), np.zeros(2), (np.array([0, 1]), np.array([1, 0])), params)

    msg0 = w.msg(constant(np.zeros((1, HID))))
    gate0 = sigmoid(w.gate(constant(np.zeros((1, HID + 1)))))
    agg = np.tile((gate0.value * msg0.value), (2, 1))
    expect = w.gru(constant(h.copy()), constant(agg))
    assert np.allclose(out.value, expect.value)


def test_round_isolated_node_gets_zero_message_update():
    params = small_params(6)
    w = params.round_for(0)
    h = np.random.default_rng(0).standard_normal((3, HID))
    empty = np.zeros(0, np.int64)
    out = gnn_round(constant(h.copy()), np.zeros(3), (empty, empty), params)
    expect = w.gru(constant(h.copy()), constant(np.zeros((3, HID))))
    assert np.allclose(out.value, expect.value)


def test_round_permutation_equivariant():
    rng = np.random.default_rng(7)
    params = small_params(8)
    n = 6
    h = rng.standard_normal((n, HID))
    x = (rng.random(n) < 0.5).astype(np.float64)
    und = [(i, j) for i in range(n) for j in range(i) if rng.random() < 0.5]
    recv = np.array([e[0] for e in und] + [e[1] for e in und], dtype=np.int64)
    send = np.array([e[1] for e in und] + [e[0] for e in und], dtype=np.int64)
    out = gnn_round(constant(h.copy()), x, (recv, send), params)

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    out_p = gnn_round(
        constant(h[inv].copy()), x[inv], (perm[recv][::-1].copy(), perm[send][::-1].copy()), params
    )
    assert np.allclose(out_p.value, out.value[inv], atol=1e-9)


def test_untied_rounds_have_independent_weights():
    params = small_params(9, tied_rounds=False, rounds=3)
    assert len(params.round_weights) == 3
    assert params.round_for(2) is params.round_weights[2]
    tied = small_params(9)
    assert len(tied.round_weights) == 1
    assert tied.round_for(1) is tied.round_weights[0]


# ---------------------------------------------------------------------------
# output heads


def test_heads_single_component_alpha_is_one():
    params = small_params(10, mixture_k=1)
    h = constant(np.random.default_rng(1).standard_normal((4, HID)))
    mix = output_heads(h, [2, 3], params)
    assert mix.alpha.value.shape == (1,)
    assert mix.alpha.value[0] == pytest.approx(1.0)


def test_heads_zero_theta_mlp_gives_half():
    params = small_params(11)
    for t in params.head_theta.tensors():
        t.value[...] = 0.0
    h = constant(np.random.default_rng(2).standard_normal((3, HID)))
    mix = output_heads(h, [1, 2], params)
    assert np.allclose(mix.theta.value, 0.5)


def test_heads_identical_states_give_identical_rows():
    params = small_params(12)
    mix = output_heads(constant(np.ones((4, HID))), [2, 3], params)
    assert np.allclose(mix.theta.value, mix.theta.value[0])


def test_heads_reject_empty_block():
    params = small_params(13)
    with pytest.raises(ValueError):
        output_heads(constant(np.ones((2, HID))), [], params)


def test_heads_simplex_and_open_interval():
    params = small_params(14)
    h = constant(np.random.default_rng(3).standard_normal((5, HID)))
    mix = output_heads(h, [2, 3, 4], params)
    assert mix.alpha.value.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(mix.theta.value > 0) and np.all(mix.theta.value < 1)
    assert mix.num_pairs == 2 + 3 + 4


# ---------------------------------------------------------------------------
# block likelihood


def manual_mixture(alpha, logits):
    alpha = np.asarray(alpha, dtype=np.float64)
    logits_t = constant(np.asarray(logits, dtype=np.float64))
    return MixtureParams(
        alpha=constant(alpha),
        theta=sigmoid(logits_t),
        log_alpha=constant(np.log(alpha)),
        theta_logits=logits_t,
    )


def test_block_ll_two_half_edges():
    mix = manual_mixture([1.0], np.zeros((2, 1)))
    assert block_log_likelihood(mix, [1, 1]).item() == pytest.approx(np.log(0.25))


def test_block_ll_mixture_collapse():
    one = manual_mixture([1.0], np.zeros((2, 1)))
    two = manual_mixture([0.5, 0.5], np.zeros((2, 2)))
    bits = [1, 0]
    assert block_log_likelihood(two, bits).item() == pytest.approx(
        block_log_likelihood(one, bits).item()
    )


def test_block_ll_matches_enumeration_oracle():
    rng = np.random.default_rng(15)
    alpha = rng.dirichlet(np.ones(3))
    logits = rng.standard_normal((4, 3))
    bits = np.array([1.0, 0.0, 1.0, 1.0])
    mix = manual_mixture(alpha, logits)

    theta = 1.0 / (1.0 + np.exp(-logits))
    per_k = np.prod(theta ** bits[:, None] * (1 - theta) ** (1 - bits[:, None]), axis=0)
    expect = np.log(float(alpha @ per_k))
    assert block_log_likelihood(mix, bits).item() == pytest.approx(expect, abs=1e-10)


def test_block_ll_rejects_wrong_length():
    mix = manual_mixture([1.0], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        block_log_likelihood(mix, [1, 0, 1])


# ---------------------------------------------------------------------------
# teacher-forced graph likelihood


def test_single_node_graph_scores_zero():
    params = small_params(16)
    g = Graph(1, frozenset(), (0,), 0)
    og = decompose(g, 8)
    ll = graph_log_likelihood(og, one_hot(0, 2), params, 2)
    assert ll.item() == pytest.approx(0.0, abs=1e-9)


def test_log_likelihood_never_positive():
    rng = np.random.default_rng(17)
    params = small_params(18)
    c = one_hot(1, 2)
    for _ in range(10):
        og = random_ordered(rng, int(rng.integers(2, 9)), params)
        assert graph_log_likelihood(og, c, params, 2).item() <= 1e-9


def test_blocks_add_up():
    params = small_params(19)
    c = one_hot(0, 2)
    g = Graph(4, frozenset({(0, 1), (1, 2), (0, 3)}), (0, 0, 0, 0), 0)
    og = decompose(g, 8)
    total = graph_log_likelihood(og, c, params, 2)

    by_hand = 0.0
    for t, block in enumerate(block_partition(g.num_nodes, 2), start=1):
        mix, _ = step_forward(og.lower_rows, block, c, t, params)
        by_hand += block_log_likelihood(mix, block_bits(og.lower_rows, block)).item()
    assert total.item() == pytest.approx(by_hand, abs=1e-10)


def test_condition_changes_likelihood():
    rng = np.random.default_rng(20)
    params = small_params(21)
    og = random_ordered(rng, 6, params)
    l0 = graph_log_likelihood(og, one_hot(0, 2), params, 2)
    l1 = graph_log_likelihood(og, one_hot(1, 2), params, 2)
    assert abs(l0.item() - l1.item()) > 1e-8


def test_capacity_mismatch_rejected():
    params = small_params(22)
    g = Graph(3, frozenset({(0, 1)}), (0, 0, 0), 0)
    og = decompose(g, 16)
    with pytest.raises(ValueError):
        graph_log_likelihood(og, one_hot(0, 2), params, 2)


# ---------------------------------------------------------------------------
# union forward


def test_one_step_plan_matches_per_step_oracle_bit_for_bit():
    rng = np.random.default_rng(25)
    for block_size in (1, 2, 3):
        params = small_params(26, block_size=block_size)
        for label in (0, 1):
            og = random_ordered(rng, int(rng.integers(1, 9)), params)
            c = one_hot(label, 2)
            for t, block in enumerate(block_partition(og.base.num_nodes, block_size), 1):
                plan = UnionPlan([(og.lower_rows[: block[0]], [block])])
                log_alpha, theta_logits, h = G.step_forward(plan, [label], params)
                mix, want = step_forward(og.lower_rows, block, c, t, params)
                assert np.array_equal(log_alpha.value[0], mix.log_alpha.value)
                assert np.array_equal(theta_logits.value, mix.theta_logits.value)
                assert np.array_equal(h.value, want.value)
                assert np.array_equal(plan.new_nodes, block)


def test_stacked_plan_matches_each_graph_alone():
    rng = np.random.default_rng(27)
    params = small_params(28)
    ogs = [random_ordered(rng, n, params) for n in (5, 1, 8, 3)]
    labels = [1, 0, 0, 1]
    runs = [(og.lower_rows, block_partition(og.base.num_nodes, 2)) for og in ogs]
    plans = [UnionPlan([run]) for run in runs]
    u = UnionPlan(runs)
    log_alpha, theta_logits, h = G.step_forward(u, labels, params)
    bounds = u.pair_bounds()
    for i, (plan, label, s0) in enumerate(zip(plans, labels, u.step_off)):
        la, tl, hi = G.step_forward(plan, [label], params)
        steps = slice(s0, s0 + plan.num_steps)
        assert np.array_equal(log_alpha.value[steps], la.value)
        pairs = slice(bounds[s0], bounds[s0 + plan.num_steps])
        assert np.array_equal(theta_logits.value[pairs], tl.value)
        assert np.array_equal(h.value[u.node_graph == i], hi.value)


@pytest.mark.parametrize("mixture_k", [1, 2, 7])
@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_stacked_one_step_plans_match_each_plan_alone_bit_for_bit(block_size, mixture_k):
    """One-step plans of several samples side by side: every output row has
    the bits of its plan run alone, whatever else the union holds, since
    every forward product pads narrow weights and one-row inputs."""
    rng = np.random.default_rng(60 + 10 * mixture_k + block_size)
    params = small_params(61, block_size=block_size, mixture_k=mixture_k, max_nodes=40)
    nodeclf = init_node_classifier(HID, 4, np.random.default_rng(62))
    runs, labels = [], []
    for n in (40, 3, 17, 1, 26, 2, 9):
        og = random_ordered(rng, n, params, p=0.3)
        blocks = block_partition(n, block_size)
        block = blocks[int(rng.integers(len(blocks)))]
        runs.append((og.lower_rows[: block[0]], [block]))
        labels.append(int(rng.integers(2)))
    u = UnionPlan(runs)
    with no_grad():
        log_alpha, theta_logits, h = G.step_forward(u, labels, params)
        node_dists = classify_nodes(gather_rows(h, u.new_nodes), nodeclf).value
    bounds = u.pair_bounds()
    for s, (run, label) in enumerate(zip(runs, labels)):
        plan = UnionPlan([run])
        with no_grad():
            la, tl, hi = G.step_forward(plan, [label], params)
            dists = classify_nodes(gather_rows(hi, plan.new_nodes), nodeclf).value
        assert np.array_equal(log_alpha.value[s], la.value[0])
        assert np.array_equal(theta_logits.value[bounds[s]:bounds[s + 1]], tl.value)
        assert np.array_equal(h.value[u.node_step == s], hi.value)
        assert np.array_equal(node_dists[u.node_step[u.new_nodes] == s], dists)


def test_stack_offsets_and_shared_zero_row():
    lower = np.zeros((3, 8))
    lower[1, 0] = lower[2, 1] = 1.0
    run_a, run_b = (lower, [[0], [1], [2]]), (lower[:2], [[0, 1]])
    a = UnionPlan([run_a])
    assert a.num_nodes == 1 + 2 + 3 and a.num_steps == 3 and a.num_pairs == 0 + 1 + 2
    assert a.src_idx.tolist() == [3, 0, 3, 0, 1, 3]
    assert a.pair_bounds().tolist() == [0, 0, 1, 3]
    u = UnionPlan([run_a, run_b])
    assert u.rows.shape == (5, 8)
    # new nodes of both graphs read the one zero row after the five real rows
    assert u.src_idx.tolist() == [5, 0, 5, 0, 1, 5, 5, 5]
    assert u.step_off.tolist() == [0, 3]
    assert u.node_graph.tolist() == [0] * 6 + [1] * 2
    assert u.pair_seg.tolist() == [1, 2, 2, 3]
    assert u.pairs[0].tolist() == [2, 5, 5, 7] and u.pairs[1].tolist() == [1, 3, 4, 6]
    assert u.new_nodes.tolist() == [0, 2, 5, 6, 7]
    assert u.node_step.tolist() == [0, 1, 1, 2, 2, 2, 3, 3]
    # step 2 of a: observed (1, 0), then pairs 1 and 2; both again reversed
    assert u.edge_pair.tolist() == [0, 0, -1, 1, 2, -1, 1, 2, 3, 3]
    recv, send = u.edges
    for e, pair in enumerate(u.edge_pair):
        if pair < 0:  # an observed prefix edge joins two old nodes
            assert u.x[recv[e]] == u.x[send[e]] == 0.0
        else:
            assert {recv[e], send[e]} == {u.pairs[0][pair], u.pairs[1][pair]}
    # a one-node graph has no candidate pairs: it shifts steps, not pairs
    run_lone = (np.zeros((0, 8)), [[0]])
    lone = UnionPlan([run_lone])
    assert lone.num_pairs == 0 and lone.edge_pair.size == 0
    v = UnionPlan([run_b, run_lone, run_a])
    assert v.node_step.tolist() == [0, 0, 1, 2, 3, 3, 4, 4, 4]
    assert v.edge_pair.tolist() == [0, 0, 1, 1, -1, 2, 3, -1, 2, 3]


def _assert_plan_fields(plan, want):
    assert set(vars(plan)) == set(want)
    for name, value in want.items():
        got = getattr(plan, name)
        if isinstance(value, tuple):
            assert len(got) == len(value)
            assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, value))
        elif isinstance(value, np.ndarray):
            assert np.array_equal(got, value) and got.dtype == value.dtype, name
        else:
            assert got == value, name


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_plan_matches_the_per_step_layout_field_by_field(block_size):
    """Each kind of run a chunk or a sample holds, alone and side by side."""
    rng = np.random.default_rng(40 + block_size)
    params = small_params(41, max_nodes=40)
    ogs = [random_ordered(rng, n, params, p=0.5) for n in (8, 7, 8, 6)]
    ogs.append(decompose(Graph(1, frozenset(), (0,), 0), 40))
    ogs.append(random_ordered(rng, 40, params, p=0.1))
    blocks = [block_partition(og.base.num_nodes, block_size) for og in ogs]
    cut = len(blocks[1]) // 2
    mid = blocks[5][5:]
    runs = [
        (ogs[0].lower_rows, blocks[0]),  # a whole graph
        (ogs[1].lower_rows, blocks[1][cut:cut + 1]),  # one step at a chunk cut
        (ogs[2].lower_rows, blocks[2][1:]),  # starts mid-graph
        (ogs[3].lower_rows, blocks[3][:1]),  # the first step: edgeless at B = 1
        (ogs[4].lower_rows, blocks[4]),  # a one-node graph: no edges at all
        (ogs[1].lower_rows[:blocks[1][-1][0]], blocks[1][-1:]),  # a sampling step
        (ogs[5].lower_rows[:mid[-1][0]], mid),  # 40 nodes from mid-graph, chunk rows
    ]
    # a first step has no prefix edges, only its B(B - 1) / 2 candidate pairs
    assert UnionPlan([runs[3]]).edges[0].size == block_size * (block_size - 1)
    for run in runs:
        _assert_plan_fields(UnionPlan([run]), reference_plan([run]))
    one_step = [runs[1], runs[3], runs[5]]
    for plan_runs in (runs, runs[::-1], one_step):
        _assert_plan_fields(UnionPlan(plan_runs), reference_plan(plan_runs))


def test_classifier_reads_union_edges_as_the_separate_layout_did():
    """The classifier logits over the union's own edges equal those over
    the layout that listed each step's observed prefix edges, then every
    candidate pair forward, then every pair reversed."""
    rng = np.random.default_rng(31)
    params = small_params(32)
    clf = init_graph_classifier(4, 2, np.random.default_rng(33))
    for block_size in (1, 2, 3):
        ogs = [random_ordered(rng, n, params) for n in (6, 1, 8, 4)]
        u = UnionPlan([
            (og.lower_rows, block_partition(og.base.num_nodes, block_size)) for og in ogs
        ])
        pair_weight = rng.random((u.num_pairs, 1))
        pre_recv, pre_send, node_seg = [], [], []
        node0 = step0 = 0
        for og in ogs:
            for block in block_partition(og.base.num_nodes, block_size):
                obs_i, obs_j = np.nonzero(og.lower_rows[: block[0]])
                pre_recv += [obs_i + node0, obs_j + node0]
                pre_send += [obs_j + node0, obs_i + node0]
                node_seg.append(np.full(block[-1] + 1, step0))
                node0 += block[-1] + 1
                step0 += 1
        rows, cols = u.pairs
        n_pre = sum(a.size for a in pre_recv)
        features = uniform_features(u.num_nodes, clf.feature_dim)
        separate = graph_logits(
            clf, features,
            np.concatenate([*pre_recv, rows, cols]).astype(np.int64),
            np.concatenate([*pre_send, cols, rows]).astype(np.int64),
            constant(np.concatenate([np.ones((n_pre, 1)), pair_weight, pair_weight])),
            np.concatenate(node_seg), u.num_steps,
        )
        table = constant(np.concatenate([np.ones((1, 1)), pair_weight]))
        union = graph_logits(
            clf, features, *u.edges, gather_rows(table, u.edge_pair + 1),
            u.node_step, u.num_steps,
        )
        assert np.array_equal(union.value, separate.value)


# ---------------------------------------------------------------------------
# candidate enumeration


def test_candidate_pairs_order():
    rows, cols = candidate_pairs([2, 3])
    assert list(zip(rows, cols)) == [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    rows0, cols0 = candidate_pairs([0])
    assert rows0.size == 0 and cols0.size == 0


def test_augmented_edges_cover_prefix_and_candidates():
    lower = np.zeros((4, 8), dtype=np.uint8)
    lower[1, 0] = 1
    lower[3, 2] = 1
    recv, send = augmented_edges(lower, 2, [2, 3])
    pairs = set(zip(recv.tolist(), send.tolist()))
    # observed (1,0) plus candidates (2,*), (3,*), each in both directions
    assert (1, 0) in pairs and (0, 1) in pairs
    for i, j in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        assert (i, j) in pairs and (j, i) in pairs
    assert len(pairs) == 2 * (1 + 5)


def test_block_bits_align_with_candidates():
    lower = np.zeros((4, 8), dtype=np.uint8)
    lower[2, 1] = 1
    lower[3, 0] = 1
    assert block_bits(lower, [2, 3]).tolist() == [0, 1, 1, 0, 0]


# ---------------------------------------------------------------------------
# gradients


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    params = small_params(24)
    # jitter every parameter (biases start at zero) so no ReLU pre-activation
    # sits exactly on the kink for the zero-difference pairs of step 1
    for t in params.tensors():
        t.value += rng.normal(scale=0.05, size=t.value.shape)
    og = random_ordered(rng, 5, params)
    c = one_hot(1, 2)

    def loss():
        return -graph_log_likelihood(og, c, params, 2).item()

    picked = [
        params.row_embed.W,
        params.cond_embed.W,
        params.round_weights[0].msg.layers[0].W,
        params.round_weights[0].gru.un,
        params.head_alpha.layers[1].W,
        params.head_theta.layers[0].b,
    ]
    numeric = finite_diff(loss, [p.value for p in picked])

    out = -graph_log_likelihood(og, c, params, 2)
    out.backward()
    for p, num in zip(picked, numeric):
        assert p.grad is not None
        assert rel_error(p.grad, num) < 1e-4
