"""Message-passing layers, their loop-written twin, and the network plumbing."""

import numpy as np
import pytest

from polyspan import (
    DataMap,
    GraphContext,
    InputError,
    LayerConfig,
    MLP,
    MemoryCapError,
    SpanValidationError,
    finite_diff_check,
    mpnn_forward,
    v2_forward,
    v3_forward,
)
from polyspan.algorithms import floyd_warshall_step
from polyspan.gnn import (
    MpnnParams,
    SquaredLoss,
    mpnn_reference,
    naive_edge_update_span,
    v3_fw_step,
)


def features(rng, g: GraphContext, cfg: LayerConfig):
    node = [tuple(rng.uniform(-1, 1, cfg.node_width)) for _ in range(g.n)]
    edge = [tuple(rng.uniform(-1, 1, cfg.edge_width)) for _ in range(g.m)]
    graph_feat = tuple(rng.uniform(-1, 1, cfg.graph_width))
    return node, edge, graph_feat


class TestMLP:
    def test_seeded_is_deterministic(self):
        a = MLP.seeded([3, 5, 2], np.random.default_rng(9))
        b = MLP.seeded([3, 5, 2], np.random.default_rng(9))
        x = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(a(x), b(x))

    def test_shapes(self):
        m = MLP.seeded([3, 5, 2], np.random.default_rng(0))
        assert m.in_width == 3 and m.out_width == 2
        assert m(np.zeros(3)).shape == (2,)

    def test_rejects_unknown_activation(self):
        with pytest.raises(InputError):
            MLP([np.eye(2)], [np.zeros(2)], ["tanh"])

    def test_identity_network_bias_gradient_is_exact(self):
        # y = x + b, loss = |y - t|^2, so dL/db = 2 (x + b - t) exactly.
        b = np.array([0.5, -0.5])
        net = MLP([np.eye(2)], [b.copy()], ["identity"])
        x = np.array([1.0, 2.0])
        t = np.array([0.0, 1.0])
        loss = SquaredLoss(t)
        y = net(x)
        _, grads_b = net.param_gradients(x, loss.grad(y))
        assert np.allclose(grads_b[0], 2.0 * (x + b - t), atol=0, rtol=0)

    def test_finite_diff_agrees(self):
        rng = np.random.default_rng(4)
        net = MLP.seeded([3, 6, 4, 2], rng)
        x = rng.uniform(-1, 1, 3)
        loss = SquaredLoss(rng.uniform(-1, 1, 2))
        assert finite_diff_check(net, x, loss) < 1e-4


class TestLayerConfig:
    def test_pad_width_is_max(self):
        cfg = LayerConfig(node_width=5, edge_width=2, graph_width=1)
        assert cfg.pad_width == 5

    def test_rejects_unknown_aggregator(self):
        with pytest.raises(InputError):
            LayerConfig(aggregator="mean")

    def test_rejects_zero_width(self):
        with pytest.raises(InputError):
            LayerConfig(msg_width=0)


class TestMpnn:
    def test_matches_loop_reference(self, g1):
        rng = np.random.default_rng(12)
        for aggregator in ("sum", "max"):
            cfg = LayerConfig(aggregator=aggregator, seed=3)
            node, edge, gf = features(rng, g1, cfg)
            a = mpnn_forward(g1, node, edge, gf, cfg)
            b = mpnn_reference(g1, node, edge, gf, cfg)
            assert a.carrier == b.carrier
            for ra, rb in zip(a.rows, b.rows):
                assert np.allclose(ra, rb, rtol=1e-12, atol=1e-12)

    def test_deterministic_across_calls(self, g1):
        cfg = LayerConfig(seed=5)
        rng = np.random.default_rng(0)
        node, edge, gf = features(rng, g1, cfg)
        assert mpnn_forward(g1, node, edge, gf, cfg).rows == \
            mpnn_forward(g1, node, edge, gf, cfg).rows

    def test_no_edges_max_uses_floor(self):
        g = GraphContext(3, ())
        cfg = LayerConfig(aggregator="max", empty_floor=-2.5, seed=1)
        rng = np.random.default_rng(2)
        node, edge, gf = features(rng, g, cfg)
        out = mpnn_forward(g, node, edge, gf, cfg)
        ref = mpnn_reference(g, node, edge, gf, cfg)
        for ra, rb in zip(out.rows, ref.rows):
            assert np.allclose(ra, rb, rtol=1e-12, atol=1e-12)
        # And the floor actually matters: a different floor moves the output.
        other = mpnn_forward(g, node, edge, gf, LayerConfig(aggregator="max", empty_floor=9.0, seed=1))
        assert any(
            not np.allclose(ra, rb)
            for ra, rb in zip(out.rows, other.rows)
        )

    def test_duplicate_edge_is_absorbed_by_max(self):
        base = GraphContext(2, ((0, 1, 1),))
        doubled = GraphContext(2, ((0, 1, 1), (0, 1, 1)))
        cfg = LayerConfig(aggregator="max", seed=7)
        rng = np.random.default_rng(8)
        node = [tuple(rng.uniform(-1, 1, cfg.node_width)) for _ in range(2)]
        ef = tuple(rng.uniform(-1, 1, cfg.edge_width))
        gf = tuple(rng.uniform(-1, 1, cfg.graph_width))
        params = MpnnParams.from_config(cfg)
        a = mpnn_forward(base, node, [ef], gf, cfg, params)
        b = mpnn_forward(doubled, node, [ef, ef], gf, cfg, params)
        for ra, rb in zip(a.rows, b.rows):
            assert np.allclose(ra, rb, rtol=1e-12, atol=1e-12)

    def test_zero_parameters_give_zero_outputs(self, g1):
        cfg = LayerConfig(seed=0)
        c = cfg.pad_width
        zero = lambda m, n: np.zeros((m, n))
        params = MpnnParams(
            message=MLP([zero(4 * c, cfg.msg_width)], [np.zeros(cfg.msg_width)], ["identity"]),
            node_readout=MLP([zero(cfg.node_width + cfg.msg_width, cfg.node_width)],
                             [np.zeros(cfg.node_width)], ["identity"]),
        )
        rng = np.random.default_rng(3)
        node, edge, gf = features(rng, g1, cfg)
        out = mpnn_forward(g1, node, edge, gf, cfg, params)
        assert all(v == 0.0 for row in out.rows for v in row)

    def test_feature_width_checked(self, g1):
        cfg = LayerConfig()
        rng = np.random.default_rng(1)
        node, edge, gf = features(rng, g1, cfg)
        with pytest.raises(InputError):
            mpnn_forward(g1, node[:-1], edge, gf, cfg)
        with pytest.raises(InputError):
            mpnn_forward(g1, node, [e[:-1] for e in edge], gf, cfg)

    def test_node_permutation_equivariance(self):
        g = GraphContext(4, ((0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 0, 1)))
        perm = [2, 0, 3, 1]
        relabeled = GraphContext(4, tuple((perm[u], perm[v], w) for (u, v, w) in g.edges))
        cfg = LayerConfig(seed=6)
        rng = np.random.default_rng(11)
        node, edge, gf = features(rng, g, cfg)
        params = MpnnParams.from_config(cfg)
        out = mpnn_forward(g, node, edge, gf, cfg, params)
        permuted_feats = [None] * 4
        for u in range(4):
            permuted_feats[perm[u]] = node[u]
        out_p = mpnn_forward(relabeled, permuted_feats, edge, gf, cfg, params)
        for u in range(4):
            assert np.allclose(out.rows[u], out_p.rows[perm[u]], rtol=1e-9, atol=1e-12)


class TestPairAndTripleLayers:
    def test_v2_node_path_matches_mpnn(self):
        g = GraphContext.fully_connected(3)
        cfg = LayerConfig(seed=2)
        rng = np.random.default_rng(5)
        node, edge, gf = features(rng, g, cfg)
        params = MpnnParams.from_config(cfg)
        node_out, messages = v2_forward(g, node, edge, gf, cfg, params)
        assert node_out.rows == mpnn_forward(g, node, edge, gf, cfg, params).rows
        # Edge output is the message table itself: one row per ordered pair.
        assert len(messages.rows) == 9
        assert messages.width == cfg.msg_width

    def test_v2_requires_full_graph(self, g1):
        cfg = LayerConfig()
        rng = np.random.default_rng(5)
        node, edge, gf = features(rng, g1, cfg)
        with pytest.raises(InputError):
            v2_forward(g1, node, edge, gf, cfg)

    def test_v3_shapes(self):
        g = GraphContext.fully_connected(3)
        cfg = LayerConfig(seed=4)
        rng = np.random.default_rng(6)
        node, edge, gf = features(rng, g, cfg)
        node_out, edge_out = v3_forward(g, node, edge, gf, cfg)
        assert len(node_out.rows) == 3 and node_out.width == cfg.node_width
        assert len(edge_out.rows) == 9 and edge_out.width == cfg.edge_width

    def test_v3_memory_cap(self):
        # (4*16 + 7*64) * 20000 argument values and 80 * 4 message
        # values: 10,240,320, over the cap of 10,000,000.
        g = GraphContext.fully_connected(4)
        cfg = LayerConfig(node_width=20_000)
        rng = np.random.default_rng(7)
        node, edge, gf = features(rng, g, cfg)
        with pytest.raises(MemoryCapError, match="10240320 values"):
            v3_forward(g, node, edge, gf, cfg)

    def test_layers_run_no_per_row_check(self, monkeypatch):
        checks = []
        post_init = DataMap.__post_init__

        def counting(self):
            checks.append(self.width)
            post_init(self)

        monkeypatch.setattr(DataMap, "__post_init__", counting)
        cfg = LayerConfig(seed=2)
        rng = np.random.default_rng(8)
        g = GraphContext.fully_connected(3)
        node, edge, gf = features(rng, g, cfg)
        node_out = mpnn_forward(g, node, edge, gf, cfg)
        assert v2_forward(g, node, edge, gf, cfg)[0] == node_out
        v3_node, v3_edge = v3_forward(g, node, edge, gf, cfg)
        assert checks == []
        assert all(type(v) is float for out in (node_out, v3_node, v3_edge) for row in out.rows for v in row)


G1_MATRIX = ((0, 2, 7), (None, 0, 3), (None, None, 0))


class TestTripleLayerAsRelaxation:
    def test_fixture_matrix(self):
        assert v3_fw_step(G1_MATRIX) == floyd_warshall_step(G1_MATRIX)
        assert v3_fw_step(G1_MATRIX) == ((0, 2, 5), (None, 0, 3), (None, None, 0))

    def test_random_matrices(self):
        # Equal in value and Python type, n = 0 included; two entries
        # near 2^62 add up past int64, so those sweeps leave the int64
        # kernels.
        import random
        r = random.Random(21)
        for case in range(100):
            n = case % 6
            big = case % 3 == 0
            d = tuple(
                tuple(0 if i == j else (None if r.random() < 0.3 else
                                        r.randrange(2**62 - 8, 2**62 + 8) if big and r.random() < 0.5
                                        else r.randrange(0, 12))
                      for j in range(n))
                for i in range(n)
            )
            got, want = v3_fw_step(d), floyd_warshall_step(d)
            assert got == want
            assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in want]

    @pytest.mark.parametrize("d", [
        ((0, -1), (None, 0)),
        ((0, 1.5), (None, 0)),
        ((0, True), (None, 0)),
        ((1, None), (None, 0)),
        ((0, 1), (0,)),
    ], ids=["negative", "float", "bool", "diagonal", "ragged"])
    def test_rejects_what_floyd_warshall_step_rejects(self, d):
        with pytest.raises(InputError) as want:
            floyd_warshall_step(d)
        with pytest.raises(InputError) as got:
            v3_fw_step(d)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


class TestPathology:
    def test_edge_writing_span_fails_validation(self):
        with pytest.raises(SpanValidationError, match="o: codomain"):
            naive_edge_update_span(4)
