"""Tests for losses, optimizers, AMP, models, trainer, and distributed."""

import numpy as np
import pytest

from repro.ml import (
    SGD,
    Adam,
    GradScaler,
    Trainer,
    WarmupSchedule,
    autocast,
    build_cosmoflow,
    build_deepcam,
)
from repro.ml.amp import compute_dtype, matmul_mixed
from repro.ml.distributed import DataParallel, allreduce_bytes, ring_allreduce
from repro.ml.losses import mae_loss, mse_loss, softmax, softmax_cross_entropy

_RNG = np.random.default_rng(1)


class TestLosses:
    def test_mse_value_and_grad(self):
        pred = np.array([[1.0, 2.0]], dtype=np.float32)
        target = np.array([[0.0, 0.0]], dtype=np.float32)
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(2.5)
        assert np.allclose(grad, [[1.0, 2.0]])

    def test_mse_grad_fd(self):
        pred = _RNG.standard_normal((3, 4)).astype(np.float32)
        target = _RNG.standard_normal((3, 4)).astype(np.float32)
        _, grad = mse_loss(pred, target)
        eps = 1e-3
        pred2 = pred.copy()
        pred2[1, 2] += eps
        l1, _ = mse_loss(pred2, target)
        pred2[1, 2] -= 2 * eps
        l2, _ = mse_loss(pred2, target)
        assert (l1 - l2) / (2 * eps) == pytest.approx(grad[1, 2], rel=1e-2)

    def test_mae(self):
        loss, grad = mae_loss(
            np.array([[2.0, -1.0]], np.float32), np.zeros((1, 2), np.float32)
        )
        assert loss == pytest.approx(1.5)
        assert np.allclose(grad, [[0.5, -0.5]])

    def test_softmax_rows_sum_to_one(self):
        p = softmax(_RNG.standard_normal((5, 7)).astype(np.float32))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([[1000.0, 1001.0]], dtype=np.float32))
        assert np.isfinite(p).all()

    def test_cross_entropy_perfect_prediction(self):
        logits = np.zeros((1, 3, 2, 2), dtype=np.float32)
        logits[0, 1] = 50.0
        labels = np.ones((1, 2, 2), dtype=np.int64)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss < 1e-6

    def test_cross_entropy_grad_fd(self):
        logits = _RNG.standard_normal((2, 3, 4, 4)).astype(np.float32)
        labels = _RNG.integers(0, 3, (2, 4, 4))
        weights = np.array([1.0, 4.0, 2.0], dtype=np.float32)
        _, grad = softmax_cross_entropy(logits, labels, weights)
        eps = 1e-3
        idx = (1, 2, 0, 3)
        logits2 = logits.copy()
        logits2[idx] += eps
        l1, _ = softmax_cross_entropy(logits2, labels, weights)
        logits2[idx] -= 2 * eps
        l2, _ = softmax_cross_entropy(logits2, labels, weights)
        assert (l1 - l2) / (2 * eps) == pytest.approx(grad[idx], rel=1e-2, abs=1e-5)

    def test_cross_entropy_label_validation(self):
        logits = np.zeros((1, 3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.full((1, 2, 2), 3))
        with pytest.raises(ValueError):
            softmax_cross_entropy(
                logits, np.zeros((1, 2, 2)), class_weights=np.ones(2)
            )


class TestSchedule:
    def test_warmup_then_plateau(self):
        sch = WarmupSchedule(base_lr=1.0, warmup_steps=4)
        assert sch.lr_at(0) == pytest.approx(0.25)
        assert sch.lr_at(3) == pytest.approx(1.0)
        assert sch.lr_at(100) == pytest.approx(1.0)

    def test_decay_phases(self):
        sch = WarmupSchedule(base_lr=1.0, decay_steps={10: 0.5, 20: 0.1})
        assert sch.lr_at(5) == 1.0
        assert sch.lr_at(15) == 0.5
        assert sch.lr_at(25) == pytest.approx(0.1)

    def test_rank_scaling(self):
        sch = WarmupSchedule(base_lr=0.1, rank_scale=8.0)
        assert sch.lr_at(0) == pytest.approx(0.8)


class TestOptimizers:
    def _quadratic(self, opt_cls, **kwargs):
        # minimize ||p||^2 from p=ones
        params = {"p": np.ones(4, dtype=np.float32)}
        sch = WarmupSchedule(base_lr=0.1)
        opt = opt_cls(params, sch, **kwargs)
        for _ in range(60):
            opt.step({"p": 2 * params["p"]})
        return params["p"]

    def test_sgd_converges(self):
        assert np.abs(self._quadratic(SGD, momentum=0.5)).max() < 1e-2

    def test_adam_converges(self):
        # Adam oscillates near the optimum on quadratics; assert it gets
        # close rather than machine-tight
        assert np.abs(self._quadratic(Adam)).max() < 0.1

    def test_sgd_momentum_accelerates(self):
        def run(mom):
            params = {"p": np.ones(1, dtype=np.float32)}
            opt = SGD(params, WarmupSchedule(base_lr=0.01), momentum=mom)
            for _ in range(10):
                opt.step({"p": 2 * params["p"]})
            return abs(float(params["p"][0]))

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        params = {"p": np.ones(1, dtype=np.float32)}
        opt = SGD(params, WarmupSchedule(base_lr=0.1), momentum=0.0,
                  weight_decay=1.0)
        opt.step({"p": np.zeros(1, dtype=np.float32)})
        assert params["p"][0] < 1.0

    def test_master_weights_stay_fp32(self):
        params = {"p": np.ones(2, dtype=np.float32)}
        opt = Adam(params, WarmupSchedule(base_lr=0.1))
        opt.step({"p": np.ones(2, dtype=np.float16)})
        assert params["p"].dtype == np.float32


class TestAmp:
    def test_autocast_scope(self):
        assert compute_dtype() == np.float32
        with autocast(True):
            assert compute_dtype() == np.float16
            with autocast(False):
                assert compute_dtype() == np.float32
        assert compute_dtype() == np.float32

    def test_matmul_mixed_fp16_accumulates_fp32(self):
        # values that would overflow an FP16 accumulation but not FP32
        a = np.full((1, 4096), 8.0, dtype=np.float32)
        b = np.full((4096, 1), 8.0, dtype=np.float32)
        with autocast(True):
            out = matmul_mixed(a, b)
        assert out.dtype == np.float16
        assert np.isinf(out).all()  # result 262144 > fp16 max: inf on cast
        with autocast(False):
            exact = matmul_mixed(a, b)
        assert exact[0, 0] == pytest.approx(4096 * 64)

    def test_matmul_mixed_rounds_operands(self):
        a = np.array([[1.0 + 2**-13]], dtype=np.float32)  # rounds away
        b = np.array([[1.0]], dtype=np.float32)
        with autocast(True):
            out = matmul_mixed(a, b)
        assert float(out[0, 0]) == 1.0

    def test_gradscaler_backoff_on_nonfinite(self):
        sc = GradScaler(scale=16.0)
        ok = sc.step_ok({"g": np.array([np.inf], dtype=np.float32)})
        assert not ok and sc.scale == 8.0

    def test_gradscaler_growth(self):
        sc = GradScaler(scale=2.0, growth_interval=3)
        for _ in range(3):
            assert sc.step_ok({"g": np.ones(1, dtype=np.float32)})
        assert sc.scale == 4.0

    def test_gradscaler_unscale(self):
        sc = GradScaler(scale=4.0)
        out = sc.unscale({"g": np.array([8.0], dtype=np.float16)})
        assert out["g"].dtype == np.float32 and out["g"][0] == 2.0


class TestModels:
    def test_cosmoflow_output_shape(self):
        m = build_cosmoflow(grid=8, in_channels=2, n_conv_layers=2,
                            base_filters=2, dense_units=(8, 4))
        x = _RNG.standard_normal((3, 2, 8, 8, 8)).astype(np.float32)
        assert m.forward(x).shape == (3, 4)

    def test_cosmoflow_depth_clamped(self):
        m = build_cosmoflow(grid=8, n_conv_layers=5, base_filters=2)
        convs = [l for l in m.layers if l.name.startswith("conv")]
        assert len(convs) == 3  # log2(8)

    def test_cosmoflow_paper_topology(self):
        # grid 32 supports the paper's five conv layers + three dense
        m = build_cosmoflow(grid=32, n_conv_layers=5, base_filters=2)
        convs = [l for l in m.layers if l.name.startswith("conv")]
        denses = [l for l in m.layers if l.name.startswith(("dense", "head"))]
        assert len(convs) == 5 and len(denses) == 3

    def test_deepcam_output_shape(self):
        m = build_deepcam(in_channels=4, n_classes=3, base_filters=4)
        x = _RNG.standard_normal((2, 4, 8, 12)).astype(np.float32)
        assert m.forward(x).shape == (2, 3, 8, 12)

    def test_deepcam_whole_model_gradcheck(self):
        rng = np.random.default_rng(1234)  # fixed: FD probes must not move
        m = build_deepcam(in_channels=2, n_classes=2, base_filters=2, seed=3)
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        y = rng.integers(0, 2, (1, 8, 8))
        logits = m.forward(x)
        _, dl = softmax_cross_entropy(logits, y)
        m.backward(dl)
        grads = m.gradients()
        p = m.parameters()["mid.w"]
        g = grads["mid.w"]
        idx = (0, 0, 1, 1)
        eps = 1e-2
        orig = p[idx]
        p[idx] = orig + eps
        l1, _ = softmax_cross_entropy(m.forward(x, training=False), y)
        p[idx] = orig - eps
        l2, _ = softmax_cross_entropy(m.forward(x, training=False), y)
        p[idx] = orig
        fd = (l1 - l2) / (2 * eps)
        denom = max(abs(fd), abs(g[idx]), 1e-5)
        assert abs(fd - g[idx]) / denom < 0.05

    def test_parameters_and_load(self):
        m = build_cosmoflow(grid=8, n_conv_layers=1, base_filters=2)
        state = {k: v + 1 for k, v in m.parameters().items()}
        m.load_parameters(state)
        for k, v in m.parameters().items():
            assert np.array_equal(v, state[k])
        with pytest.raises(KeyError):
            m.load_parameters({})

    def test_n_parameters_positive(self):
        m = build_deepcam(in_channels=2, base_filters=2)
        assert m.n_parameters() > 100


class TestTrainer:
    def _setup(self, mixed):
        m = build_cosmoflow(grid=8, in_channels=2, n_conv_layers=2,
                            base_filters=2, dense_units=(8, 4), seed=5)
        opt = Adam(m.parameters(), WarmupSchedule(base_lr=5e-3))
        return Trainer(m, mse_loss, opt, mixed_precision=mixed)

    def test_loss_decreases_fp32(self):
        tr = self._setup(False)
        x = _RNG.standard_normal((4, 2, 8, 8, 8)).astype(np.float32)
        y = _RNG.standard_normal((4, 4)).astype(np.float32)
        for _ in range(15):
            tr.train_step(x, y)
        assert tr.history.step_losses[-1] < tr.history.step_losses[0]

    def test_loss_decreases_amp(self):
        tr = self._setup(True)
        x = _RNG.standard_normal((4, 2, 8, 8, 8)).astype(np.float16)
        y = _RNG.standard_normal((4, 4)).astype(np.float32)
        for _ in range(15):
            tr.train_step(x, y)
        assert tr.history.step_losses[-1] < tr.history.step_losses[0]
        assert tr.history.skipped_steps == 0

    def test_amp_and_fp32_converge_similarly(self):
        x = _RNG.standard_normal((4, 2, 8, 8, 8)).astype(np.float32)
        y = _RNG.standard_normal((4, 4)).astype(np.float32)
        finals = []
        for mixed in (False, True):
            tr = self._setup(mixed)
            for _ in range(20):
                tr.train_step(x, y)
            finals.append(tr.history.step_losses[-1])
        assert abs(finals[0] - finals[1]) < 0.25 * max(finals[0], 1e-3)

    def test_epoch_bookkeeping(self):
        tr = self._setup(False)
        x = _RNG.standard_normal((2, 2, 8, 8, 8)).astype(np.float32)
        y = _RNG.standard_normal((2, 4)).astype(np.float32)
        mean = tr.train_epoch([(x, y), (x, y)])
        assert len(tr.history.epoch_losses) == 1
        assert mean == pytest.approx(np.mean(tr.history.step_losses[:2]))

    def test_evaluate_no_update(self):
        tr = self._setup(False)
        x = _RNG.standard_normal((2, 2, 8, 8, 8)).astype(np.float32)
        y = _RNG.standard_normal((2, 4)).astype(np.float32)
        before = {k: v.copy() for k, v in tr.model.parameters().items()}
        tr.evaluate([(x, y)])
        for k, v in tr.model.parameters().items():
            assert np.array_equal(v, before[k])


class TestDistributed:
    def test_ring_allreduce_averages(self):
        chunks = [np.full(10, float(r)) for r in range(4)]
        out = ring_allreduce(chunks)
        for o in out:
            assert np.allclose(o, 1.5)

    def test_ring_allreduce_single_rank(self):
        out = ring_allreduce([np.arange(5.0)])
        assert np.array_equal(out[0], np.arange(5.0))

    def test_ring_allreduce_uneven_segments(self):
        # n not divisible by P exercises the segment boundary math
        chunks = [np.arange(7.0) + r for r in range(3)]
        out = ring_allreduce(chunks)
        want = np.arange(7.0) + 1.0
        for o in out:
            assert np.allclose(o, want)

    def test_ring_allreduce_shape_mismatch(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.zeros(3), np.zeros(4)])

    def test_allreduce_bytes(self):
        assert allreduce_bytes(1000) == 8000

    def test_data_parallel_matches_single_process(self):
        def build(seed):
            return build_cosmoflow(grid=8, in_channels=2, n_conv_layers=1,
                                   base_filters=2, dense_units=(4,), seed=7)

        x = _RNG.standard_normal((4, 2, 8, 8, 8)).astype(np.float32)
        y = _RNG.standard_normal((4, 4)).astype(np.float32)

        single = build(0)
        pred = single.forward(x)
        _, dpred = mse_loss(pred, y)
        single.backward(dpred.astype(np.float32))
        ref = single.gradients()

        dp = DataParallel(build, n_ranks=2, seed=0)
        loss, avg = dp.forward_backward(x, y, mse_loss)
        for name in ref:
            assert np.allclose(avg[name], ref[name], rtol=1e-4, atol=1e-6), name

    def test_replicas_stay_identical(self):
        def build(seed):
            return build_cosmoflow(grid=8, in_channels=2, n_conv_layers=1,
                                   base_filters=2, dense_units=(4,), seed=9)

        dp = DataParallel(build, n_ranks=3, seed=0)
        x = _RNG.standard_normal((6, 2, 8, 8, 8)).astype(np.float32)
        y = _RNG.standard_normal((6, 4)).astype(np.float32)
        _, grads = dp.forward_backward(x, y, mse_loss)

        def step(params):
            for k in params:
                params[k] -= 0.01 * grads[k]

        dp.apply_update(step)
        p0 = dp.replicas[0].parameters()
        for rep in dp.replicas[1:]:
            for k, v in rep.parameters().items():
                assert np.array_equal(v, p0[k])

    def test_indivisible_batch_rejected(self):
        def build(seed):
            return build_cosmoflow(grid=8, in_channels=2, n_conv_layers=1,
                                   base_filters=2, dense_units=(4,))

        dp = DataParallel(build, n_ranks=2)
        with pytest.raises(ValueError):
            dp.forward_backward(
                np.zeros((3, 2, 8, 8, 8), np.float32),
                np.zeros((3, 4), np.float32),
                mse_loss,
            )


class TestFit:
    def _loaders(self, n=8):
        from repro.core.plugins import CosmoflowLutPlugin
        from repro.datasets import cosmoflow
        from repro.pipeline import DataLoader, ListSource
        from repro.pipeline.ops import LabelTransformOp

        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=3000)
        plugin = CosmoflowLutPlugin("cpu")
        tr = [plugin.encode(s.data, s.label)
              for s in cosmoflow.generate_dataset(n, cfg, seed=1)]
        va = [plugin.encode(s.data, s.label)
              for s in cosmoflow.generate_dataset(4, cfg, seed=2)]
        ops = [LabelTransformOp(cosmoflow.normalize_label)]
        return (
            DataLoader(ListSource(tr), plugin, batch_size=4, seed=0,
                       extra_ops=ops),
            DataLoader(ListSource(va), plugin, batch_size=4, shuffle=False,
                       extra_ops=ops),
        )

    def _trainer(self, seed=3):
        m = build_cosmoflow(grid=8, in_channels=4, n_conv_layers=2,
                            base_filters=2, dense_units=(8,), seed=seed)
        return Trainer(m, mse_loss,
                       Adam(m.parameters(), WarmupSchedule(base_lr=3e-3)),
                       mixed_precision=True)

    def test_fit_trains_and_reports(self):
        train, val = self._loaders()
        res = self._trainer().fit(train, epochs=4, val_loader=val)
        assert res.epochs_run == 4
        assert len(res.train_losses) == 4
        assert len(res.val_losses) == 4
        assert res.train_losses[-1] < res.train_losses[0]
        assert res.best_epoch >= 0

    def test_early_stopping(self):
        train, val = self._loaders()
        tr = self._trainer()
        # a zero LR after the first step freezes the weights, so the val
        # loss plateaus (no divergence) and patience runs out
        tr.optimizer.schedule.decay_steps[1] = 0.0
        res = tr.fit(train, epochs=20, val_loader=val, patience=2)
        assert res.epochs_run < 20
        assert np.isfinite(res.val_losses).all()
        assert len(set(res.val_losses[1:])) == 1

    def test_checkpoint_restores_best(self, tmp_path):
        train, val = self._loaders()
        tr = self._trainer()
        path = tmp_path / "best.rpck"
        res = tr.fit(train, epochs=4, val_loader=val, checkpoint_path=path)
        assert path.exists()
        # restored model reproduces the best validation score
        final_val = tr.evaluate(val.batches(0))
        assert final_val == pytest.approx(res.best_score, rel=1e-5)

    def test_validation(self):
        train, _ = self._loaders(4)
        with pytest.raises(ValueError):
            self._trainer().fit(train, epochs=0)
        with pytest.raises(ValueError):
            self._trainer().fit(train, epochs=1, patience=0)
