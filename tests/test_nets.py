import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybench.datagen import Dataset
from cauchybench.losses import LossSpec, clf_loss, mse_loss
from cauchybench.nets import (
    AdamState,
    FeatureScaler,
    NetworkConfig,
    Parameters,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_params,
    train,
    train_folds,
)

from . import _reference_net


def random_params(cfg, seed, keep_away_from_kinks=False):
    rng = np.random.default_rng(seed)
    sizes = cfg.layer_sizes
    weights = [rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rng.normal(size=o) for o in sizes[1:]]
    return Parameters(weights, biases)


def assert_same_params(a, b):
    assert len(a.weights) == len(b.weights)
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(x, y)


FINGERPRINT_RTOL = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "fingerprint.json").read_text()
)["rtol"]


def assert_close_params(a, b, rtol=FINGERPRINT_RTOL, atol=0.0):
    assert len(a.weights) == len(b.weights)
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.allclose(x, y, rtol=rtol, atol=atol)


def shared(folds):
    """``train_folds``'s (X, folds) for ``(data, tc)`` folds: the datasets'
    features stacked into one matrix, each fold as (its rows there, y, tc)."""
    X = np.concatenate([data.X for data, _ in folds])
    ends = np.cumsum([len(data) for data, _ in folds])
    return X, [(np.arange(end - len(data), end), data.y, tc) for (data, tc), end in zip(folds, ends)]


class TestInitParams:
    def test_deterministic(self):
        cfg = NetworkConfig(3, (7,))
        a = init_params(cfg, 99)
        b = init_params(cfg, 99)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_biases_zero_and_shapes(self):
        cfg = NetworkConfig(4, (10, 6))
        p = init_params(cfg, 0)
        assert [w.shape for w in p.weights] == [(10, 4), (6, 10), (1, 6)]
        assert all(np.all(b == 0.0) for b in p.biases)

    def test_weight_variance_matches_uniform_law(self):
        # Monte Carlo: Var(U(-s, s)) = s^2 / 3 with s = 1/sqrt(fan_in)
        cfg = NetworkConfig(25, (500,))
        p = init_params(cfg, 1234)
        w = p.weights[0].ravel()  # 12500 draws with fan_in 25
        expected = (1 / 25) / 3
        assert np.var(w) == pytest.approx(expected, rel=0.10)
        assert np.max(np.abs(w)) <= 1 / np.sqrt(25)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(0, (5,))
        with pytest.raises(ValueError):
            NetworkConfig(2, ())
        with pytest.raises(ValueError):
            NetworkConfig(2, (5, 0))
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestForward:
    def test_all_zero_params_predict_zero(self):
        cfg = NetworkConfig(3, (4,))
        p = init_params(cfg, 0).zeros_like()
        pred, _ = forward(p, np.array([[1.0, -2.0, 3.0]]))
        assert pred.tolist() == [0.0]

    def test_relu_definition_single_unit(self):
        p = Parameters(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
        )
        assert forward(p, np.array([[-5.0], [5.0]]))[0].tolist() == [0.0, 5.0]

    def test_matches_straight_line_matrix_oracle(self):
        # Independent re-computation with explicit loops.
        cfg = NetworkConfig(2, (10,))
        p = random_params(cfg, 5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=2)
            h = np.zeros(10)
            for j in range(10):
                z = p.biases[0][j]
                for i in range(2):
                    z += p.weights[0][j, i] * x[i]
                h[j] = max(z, 0.0)
            expected = p.biases[1][0]
            for j in range(10):
                expected += p.weights[1][0, j] * h[j]
            got, _ = forward(p, x[None])
            assert got.shape == (1,)
            assert got[0] == pytest.approx(expected, abs=1e-10)

    def test_batch_matches_single(self):
        cfg = NetworkConfig(4, (6, 5))
        p = random_params(cfg, 8)
        X = np.random.default_rng(9).normal(size=(7, 4))
        batch_preds, _ = forward(p, X)
        singles = np.array([forward(p, row[None])[0][0] for row in X])
        assert np.allclose(batch_preds, singles, atol=1e-12)
        assert np.array_equal(forward(p, X)[0], batch_preds)

    def test_dimension_mismatch(self):
        p = init_params(NetworkConfig(3, (4,)), 0)
        with pytest.raises(ValueError, match="5 features, network expects 3"):
            forward(p, np.ones((1, 5)))
        with pytest.raises(ValueError, match=r"\(n, d\) matrix"):
            forward(p, np.ones(3))  # a single input is a 1-row batch

    @pytest.mark.parametrize("hidden", [(6,), (5, 4)])
    def test_trained_model_predict_matches_per_row_oracle(self, hidden):
        cfg = NetworkConfig(3, hidden)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(9, 3)) * 4.0 + 1.0
        model = TrainedModel(random_params(cfg, 11), FeatureScaler.fit(X))
        expected = []
        for row in X:
            a = (row - model.scaler.mean) / model.scaler.scale
            for w, b in zip(model.params.weights[:-1], model.params.biases[:-1]):
                a = np.maximum(w @ a + b, 0.0)
            expected.append(model.params.weights[-1][0] @ a + model.params.biases[-1][0])
        assert np.allclose(model.predict(X), expected, rtol=1e-12, atol=0.0)


def fd_param_grad(params, x, y, loss_fn, h=1e-6):
    """Central finite differences of loss(y, forward(x)) in every parameter,
    for a 1-row batch x."""
    grads = params.zeros_like()
    for arrs, outs in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for arr, out in zip(arrs, outs):
            flat, gflat = arr.ravel(), out.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn(y, forward(params, x)[0][0])
                flat[i] = orig - h
                dn = loss_fn(y, forward(params, x)[0][0])
                flat[i] = orig
                gflat[i] = (up - dn) / (2 * h)
    return grads


def analytic_param_grad(params, x, y, spec):
    from cauchybench.losses import loss_grad

    pred, cache = forward(params, x)
    return backward(params, cache, loss_grad(y, pred, spec))


def safe_case(cfg, seed):
    """Random params and a 1-row input whose hidden pre-activations stay
    off the ReLU kink."""
    rng = np.random.default_rng(seed)
    while True:
        p = random_params(cfg, rng.integers(1 << 31))
        x = rng.normal(size=(1, cfg.input_dim))
        pre = _reference_net.forward(p.weights, p.biases, x[0])[2]
        if min(np.min(np.abs(z)) for z in pre) > 1e-4:
            return p, x


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        cfg = NetworkConfig(3, (5,))
        p = random_params(cfg, 1)
        _, cache = forward(p, np.ones((1, 3)))
        g = backward(p, cache, np.zeros(1))
        assert all(np.all(w == 0) for w in g.weights)
        assert all(np.all(b == 0) for b in g.biases)

    def test_linearity_in_upstream(self):
        cfg = NetworkConfig(2, (4,))
        p = random_params(cfg, 2)
        _, cache = forward(p, np.array([[0.3, -0.7]]))
        g1 = backward(p, cache, np.array([1.5]))
        g2 = backward(p, cache, np.array([3.0]))
        for a, b in zip(g1.weights, g2.weights):
            assert np.allclose(2 * a, b)
        for a, b in zip(g1.biases, g2.biases):
            assert np.allclose(2 * a, b)

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("hidden, layer", [((5,), 0), ((2,), 0), ((6, 5), 0), ((6, 5), 1), ((6, 3), 1)])
    def test_a_unit_at_the_relu_kink_gets_zero_gradient(self, hidden, layer, zero):
        # Zero weights and bias put the unit's pre-activation exactly at the
        # kink on every row, where the subgradient is taken as 0: no gradient
        # reaches its incoming weights or bias, and its output is 0, so its
        # outgoing weight gets none either. The finite-difference tests stay
        # off the kink.
        cfg, unit = NetworkConfig(3, hidden), 1
        p = random_params(cfg, 7)
        p.biases[layer] += 3.0  # the layer's other units are live
        p.weights[layer][unit], p.biases[layer][unit] = zero, zero
        X = np.random.default_rng(8).normal(size=(6, 3))
        _, cache = forward(p, X)
        g = backward(p, cache, np.random.default_rng(9).normal(size=6))
        assert np.all(g.weights[layer][unit] == 0.0) and g.biases[layer][unit] == 0.0
        assert np.all(g.weights[layer + 1][:, unit] == 0.0)
        assert np.any(g.weights[layer] != 0.0) and np.any(g.weights[layer + 1] != 0.0)

    @pytest.mark.parametrize("hidden", [(10,), (14, 14)])
    @pytest.mark.parametrize(
        "spec", [LossSpec.mse(), LossSpec.clf(1.0)], ids=["mse", "clf1"]
    )
    def test_matches_finite_differences(self, hidden, spec):
        dims = {(10,): 2, (14, 14): 8}
        cfg = NetworkConfig(dims[hidden], hidden)
        loss_fn = mse_loss if spec.c is None else lambda y, yh: clf_loss(y, yh, spec.c)
        for trial in range(10):
            p, x = safe_case(cfg, 1000 * trial + 17)
            y = float(np.random.default_rng(trial).normal())
            fd = fd_param_grad(p, x, y, loss_fn)
            an = analytic_param_grad(p, x, y, spec)
            for a, f in zip(an.weights + an.biases, fd.weights + fd.biases):
                scale = max(1.0, np.max(np.abs(f)))
                assert np.allclose(a, f, rtol=1e-5, atol=1e-7 * scale)

    def test_batch_backward_equals_sum_of_singles(self):
        cfg = NetworkConfig(3, (6,))
        p = random_params(cfg, 4)
        X = np.random.default_rng(5).normal(size=(5, 3))
        g_up = np.random.default_rng(6).normal(size=5)
        _, cache = forward(p, X)
        batch = backward(p, cache, g_up)
        total = p.zeros_like()
        for row, g in zip(X, g_up):
            _, c1 = forward(p, row[None])
            single = backward(p, c1, np.array([g]))
            for t, s in zip(total.weights, single.weights):
                t += s
            for t, s in zip(total.biases, single.biases):
                t += s
        for a, b in zip(batch.weights, total.weights):
            assert np.allclose(a, b, atol=1e-12)

    def test_cache_must_come_from_the_same_params(self):
        cfg = NetworkConfig(2, (4,))
        p, q = random_params(cfg, 3), random_params(cfg, 4)
        _, cache = forward(p, np.ones((2, 2)))
        with pytest.raises(ValueError, match="other parameters"):
            backward(q, cache, np.ones(2))
        with pytest.raises(ValueError, match="cache holds 2 samples"):
            backward(p, cache, np.ones(3))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        cfg = NetworkConfig(2, (3,))
        p = random_params(cfg, 7)
        state = init_adam_state(p)
        newp, newstate = adam_step(p, p.zeros_like(), state, TrainConfig())
        assert_same_params(newp, p)
        assert newstate.t == 1

    def test_first_step_is_signed_learning_rate(self):
        # Bias correction makes m_hat = g and v_hat = g^2, so the first
        # update is lr * g / (|g| + eps), within lr*eps/(|g|+eps) of
        # lr * sign(g).
        tc = TrainConfig(learning_rate=0.05)
        cfg = NetworkConfig(2, (3,))
        p = random_params(cfg, 8)
        g = random_params(cfg, 9)
        newp, state = adam_step(p, g, init_adam_state(p), tc)
        for w_old, w_new, gw in zip(p.weights, newp.weights, g.weights):
            step = w_new - w_old
            bound = tc.learning_rate * tc.epsilon / (np.abs(gw) + tc.epsilon)
            assert np.all(np.abs(step + tc.learning_rate * np.sign(gw)) <= bound + 1e-15)
        assert state.t == 1

    def test_two_steps_replay_identically(self):
        cfg = NetworkConfig(2, (3,))
        tc = TrainConfig()
        p = random_params(cfg, 10)
        g1, g2 = random_params(cfg, 11), random_params(cfg, 12)

        def run():
            state = init_adam_state(p)
            q, state = adam_step(p, g1, state, tc)
            q, state = adam_step(q, g2, state, tc)
            return q

        assert_same_params(run(), run())

    def test_grads_are_left_as_given(self):
        # the trainer's Adam uses the gradient buffer as scratch; adam_step
        # must not pass its caller's arrays to it
        cfg = NetworkConfig(2, (3,))
        p, g = random_params(cfg, 15), random_params(cfg, 16)
        before = g.copy()
        adam_step(p, g, init_adam_state(p), TrainConfig())
        assert_same_params(g, before)

    def test_state_v_nonnegative(self):
        cfg = NetworkConfig(2, (3,))
        p = random_params(cfg, 13)
        _, state = adam_step(p, random_params(cfg, 14), init_adam_state(p), TrainConfig())
        assert all(np.all(v >= 0) for v in state.v.weights + state.v.biases)


def constant_target_data(n=64, value=3.0, seed=0):
    X = np.random.default_rng(seed).uniform(-1, 1, size=(n, 1))
    return Dataset(X, np.full(n, value))


class TestTrain:
    def test_zero_epochs_returns_init(self):
        data = constant_target_data()
        net = NetworkConfig(1, (4,))
        tc = TrainConfig(epochs=0, seed=21)
        model = train(data, net, LossSpec.mse(), tc)
        expected = init_params(net, 21)
        assert_same_params(model.params, expected)

    @pytest.mark.parametrize("spec", [LossSpec.mse(), LossSpec.clf(1.0)], ids=["mse", "clf1"])
    def test_constant_target_converges(self, spec):
        data = constant_target_data(value=3.0)
        net = NetworkConfig(1, (4,))
        tc = TrainConfig(epochs=300, batch_size=16, learning_rate=0.01, seed=5)
        model = train(data, net, spec, tc)
        preds = model.predict(data.X)
        assert np.max(np.abs(preds - 3.0)) < 0.1

    def test_deterministic(self):
        data = constant_target_data(seed=3)
        net = NetworkConfig(1, (4,))
        tc = TrainConfig(epochs=5, seed=77)
        a = train(data, net, LossSpec.clf(2.0), tc)
        b = train(data, net, LossSpec.clf(2.0), tc)
        assert_same_params(a.params, b.params)

    def test_divergence_raises_with_epoch(self):
        data = constant_target_data()
        net = NetworkConfig(1, (4,))
        tc = TrainConfig(epochs=5, learning_rate=1e80, seed=1)
        with pytest.raises(TrainingDiverged) as exc:
            train(data, net, LossSpec.mse(), tc)
        assert isinstance(exc.value.epoch, int)
        assert 0 <= exc.value.epoch < 5

    def test_divergence_survives_a_pickle_round_trip(self):
        import pickle

        err = TrainingDiverged(3, "model=MSE fold=1 replicate=2", model=0, fold=1)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is TrainingDiverged
        assert str(back) == str(err) == "training diverged at epoch 3 (model=MSE fold=1 replicate=2)"
        assert (back.epoch, back.detail, back.model, back.fold) == (3, err.detail, 0, 1)

    def test_standardization_uses_training_stats(self):
        rng = np.random.default_rng(9)
        X = rng.normal(loc=50.0, scale=5.0, size=(40, 2))
        data = Dataset(X, X[:, 0] * 0.1)
        model = train(data, NetworkConfig(2, (4,)), LossSpec.mse(), TrainConfig(epochs=1, seed=2))
        assert np.allclose(model.scaler.mean, X.mean(axis=0))
        assert np.allclose(model.scaler.scale, X.std(axis=0))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (64, 2), (975, 17), (6400, 8)])
    def test_scaler_scale_is_numpys_std(self, shape):
        rng = np.random.default_rng(sum(shape))
        X = rng.normal(loc=50.0, scale=5.0, size=shape)
        X[:, -1] = 0.1  # a constant column, whose mean may round away from 0.1
        scaler = FeatureScaler.fit(X)
        std = X.std(axis=0)
        assert np.array_equal(scaler.mean, X.mean(axis=0))
        assert np.array_equal(scaler.scale, np.where(std > 0.0, std, 1.0))

    def test_shuffle_not_input_order_determines_batches(self):
        # Re-drive the training loop by hand; permuting data rows while
        # mapping the shuffled index stream through the permutation must
        # give the identical final parameters.
        from cauchybench.losses import loss_grad
        from cauchybench.nets import FeatureScaler, _shuffle_rng

        rng = np.random.default_rng(31)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        net = NetworkConfig(2, (5,))
        tc = TrainConfig(epochs=3, batch_size=7, seed=55)
        spec = LossSpec.clf(1.0)

        def manual_train(Xd, yd, index_map):
            scaler = FeatureScaler.fit(Xd)
            Xs = scaler.transform(Xd)
            params = init_params(net, tc.seed)
            state = init_adam_state(params)
            shuffle = _shuffle_rng(tc.seed)
            for _ in range(tc.epochs):
                order = shuffle.permutation(30)
                for idx in (order[i : i + tc.batch_size] for i in range(0, 30, tc.batch_size)):
                    mapped = index_map[idx]
                    preds, cache = forward(params, Xs[mapped])
                    g = loss_grad(yd[mapped], preds, spec)
                    grads = backward(params, cache, g)
                    for i in range(len(grads.weights)):
                        grads.weights[i] /= idx.size
                        grads.biases[i] /= idx.size
                    params, state = adam_step(params, grads, state, tc)
            return params

        identity = np.arange(30)
        baseline = manual_train(X, y, identity)
        # Library train() agrees with the hand loop (oracle for the loop itself).
        assert_close_params(train(Dataset(X, y), net, spec, tc).params, baseline)

        perm = np.random.default_rng(77).permutation(30)
        inverse = np.argsort(perm)
        permuted = manual_train(X[perm], y[perm], inverse)
        assert_close_params(baseline, permuted, rtol=1e-5, atol=1e-12)


MIXED_SPECS = (
    LossSpec.clf(0.1),
    LossSpec.clf(1.0),
    LossSpec.mse(),
    LossSpec.clf(100.0),
    LossSpec.clf(10000.0),
)


def noisy_data(n=75, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    return Dataset(X, X[:, 0] - 2.0 * X[:, 1] + 5.0 * rng.standard_cauchy(n))


class TestTrainModels:
    NET = NetworkConfig(3, (6, 5))
    TC = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=13)

    def test_each_model_equals_training_it_alone(self):
        data = noisy_data()
        models = train_folds(*shared([(data, self.TC)]), self.NET, MIXED_SPECS)[0]
        assert len(models) == len(MIXED_SPECS)
        for spec, model in zip(MIXED_SPECS, models):
            assert_same_params(model.params, train(data, self.NET, spec, self.TC).params)

    def test_result_does_not_depend_on_peers(self):
        data = noisy_data(seed=1)
        full = train_folds(*shared([(data, self.TC)]), self.NET, MIXED_SPECS)[0]
        backwards = train_folds(*shared([(data, self.TC)]), self.NET, MIXED_SPECS[::-1])[0][::-1]
        subset = train_folds(*shared([(data, self.TC)]), self.NET, (MIXED_SPECS[3], MIXED_SPECS[0]))[0]
        for a, b in zip(full, backwards):
            assert_same_params(a.params, b.params)
        assert_same_params(full[3].params, subset[0].params)
        assert_same_params(full[0].params, subset[1].params)

    @staticmethod
    def two_huge_targets():
        # Each huge residual squares to ~1.44e308 (finite); two in one
        # batch overflow the MSE batch sum, one CLF term stays ~709 * c^2.
        X = np.random.default_rng(0).uniform(-1, 1, size=(64, 1))
        y = np.zeros(64)
        y[[5, 40]] = 1.2e154
        return Dataset(X, y)

    def test_divergence_names_model_and_epoch(self):
        from cauchybench.nets import _shuffle_rng

        data = self.two_huge_targets()
        net = NetworkConfig(1, (4,))
        tc = TrainConfig(epochs=6, batch_size=16, seed=3)
        # Oracle: MSE diverges in the first epoch whose shuffle puts both
        # huge targets into one batch.
        shuffle = _shuffle_rng(tc.seed)
        orders = [shuffle.permutation(64) for _ in range(tc.epochs)]
        epochs = [any({5, 40} <= set(order[i : i + 16]) for i in range(0, 64, 16)) for order in orders]
        expected = epochs.index(True)
        assert expected > 0
        specs = (LossSpec.clf(1.0), LossSpec.mse(), LossSpec.clf(10.0))
        with pytest.raises(TrainingDiverged, match="non-finite loss") as exc:
            train_folds(*shared([(data, tc)]), net, specs)
        assert exc.value.model == 1
        assert exc.value.epoch == expected
        with pytest.raises(TrainingDiverged) as alone:
            train(data, net, LossSpec.mse(), tc)
        assert alone.value.epoch == expected and alone.value.model == 0
        for spec in (specs[0], specs[2]):
            train(data, net, spec, tc)  # the CLF peers alone train through

    def test_same_step_divergence_names_first_in_order(self):
        data = self.two_huge_targets()
        specs = (LossSpec.clf(1.0), LossSpec.mse(), LossSpec.clf(10.0), LossSpec.mse())
        tc = TrainConfig(epochs=6, batch_size=16, seed=3)
        with pytest.raises(TrainingDiverged) as exc:
            train_folds(*shared([(data, tc)]), NetworkConfig(1, (4,)), specs)
        assert exc.value.model == 1

    def test_input_checks(self):
        net = NetworkConfig(3, (4,))
        with pytest.raises(ValueError, match="empty"):
            train_folds(np.zeros((0, 3)), [(np.arange(0), np.zeros(0), self.TC)], net, MIXED_SPECS)
        with pytest.raises(ValueError, match="features"):
            train_folds(*shared([(noisy_data(d=2), self.TC)]), net, MIXED_SPECS)
        with pytest.raises(ValueError, match="features"):
            train(noisy_data(d=2), net, LossSpec.mse(), self.TC)
        with pytest.raises(ValueError, match="at least one loss"):
            train_folds(*shared([(noisy_data(), self.TC)]), net, ())


class TestTrainFolds:
    NET = NetworkConfig(3, (6, 5))

    @staticmethod
    def tc(seed, batch_size=16):
        return TrainConfig(epochs=3, batch_size=batch_size, learning_rate=0.01, seed=seed)

    def alone(self, folds):
        return [train_folds(*shared([fold]), self.NET, MIXED_SPECS)[0] for fold in folds]

    def test_each_fold_equals_training_it_alone(self):
        # 75 rows at batch 16 in every fold: the same batch layout, so the
        # joint loop makes each fold's arithmetic exactly that of its own.
        folds = [(noisy_data(seed=s), self.tc(40 + s)) for s in range(3)]
        trained = train_folds(*shared(folds), self.NET, MIXED_SPECS)
        assert [len(models) for models in trained] == [len(MIXED_SPECS)] * 3
        for (data, _), models, want in zip(folds, trained, self.alone(folds)):
            for got, ref in zip(models, want):
                assert_same_params(got.params, ref.params)
                assert np.array_equal(got.scaler.mean, data.X.mean(axis=0))

    @pytest.mark.parametrize("sizes", [(64, 65), (65, 64)])
    def test_fold_with_one_batch_more(self, sizes):
        # At batch 32, 64 rows make 2 batches per epoch and 65 make 3: the
        # 64-row fold sits out every third step, where the 65-row fold
        # trains alone on its 1-row batch.
        folds = [(noisy_data(n=n, seed=n), self.tc(n, batch_size=32)) for n in sizes]
        trained = train_folds(*shared(folds), self.NET, MIXED_SPECS)
        for models, want in zip(trained, self.alone(folds)):
            for got, ref in zip(models, want):
                assert_close_params(got.params, ref.params)

    def test_batch_above_the_largest_fold_is_full_batch_in_its_memory(self):
        # A batch_size above the fold's 60 rows trains full-batch, with its
        # buffers sized by the fold; sized by batch_size they take 100 MiB.
        folds = [(noisy_data(n=60, seed=9), self.tc(9, batch_size=60))]
        want = train_folds(*shared(folds), self.NET, MIXED_SPECS)[0]
        oversized = [(data, replace(tc, batch_size=10**5)) for data, tc in folds]
        tracemalloc.start()
        try:
            got = train_folds(*shared(oversized), self.NET, MIXED_SPECS)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for a, b in zip(got, want):
            assert_same_params(a.params, b.params)
        assert peak < 1 << 20

    def test_result_does_not_depend_on_peers(self):
        folds = [(noisy_data(n=n, seed=s), self.tc(60 + s)) for s, n in enumerate((75, 80, 70, 75))]
        full = train_folds(*shared(folds), self.NET, MIXED_SPECS)
        backwards = train_folds(*shared(folds[::-1]), self.NET, MIXED_SPECS)[::-1]
        subset = train_folds(*shared([folds[2], folds[0]]), self.NET, MIXED_SPECS)
        for a, b in zip(full, backwards):  # the same peers: the same batch widths
            for x, y in zip(a, b):
                assert_same_params(x.params, y.params)
        for a, b in zip((full[2], full[0]), subset):
            for x, y in zip(a, b):
                assert_close_params(x.params, y.params)

    def test_padding_rows_add_no_loss(self):
        # A 33-row fold at batch 32 has a 1-row second batch, padded beside
        # its 64-row peer with copies of the fold's first row. Each copy of
        # that row's huge target squares to ~1.44e308; unmasked, the padded
        # batch's MSE sum would overflow and report a divergence.
        X = np.random.default_rng(0).uniform(-1, 1, size=(33, 1))
        y = np.zeros(33)
        y[0] = 1.2e154
        spiky = Dataset(X, y)
        peer = Dataset(np.random.default_rng(1).uniform(-1, 1, size=(64, 1)), np.zeros(64))
        net = NetworkConfig(1, (4,))
        tc = TrainConfig(epochs=2, batch_size=32, seed=3)
        alone = train(spiky, net, LossSpec.mse(), tc)
        joint = train_folds(*shared([(spiky, tc), (peer, replace(tc, seed=4))]), net, [LossSpec.mse()])
        assert_close_params(joint[0][0].params, alone.params)

    def test_divergence_names_fold_model_and_epoch(self):
        data = TestTrainModels.two_huge_targets()
        tame = Dataset(data.X, np.zeros(len(data)))
        net = NetworkConfig(1, (4,))
        tc = TrainConfig(epochs=6, batch_size=16, seed=3)
        specs = (LossSpec.clf(1.0), LossSpec.mse(), LossSpec.clf(10.0))
        with pytest.raises(TrainingDiverged) as alone:
            train_folds(*shared([(data, tc)]), net, specs)
        with pytest.raises(TrainingDiverged, match="non-finite loss") as exc:
            train_folds(*shared([(tame, replace(tc, seed=4)), (data, tc)]), net, specs)
        assert (exc.value.fold, exc.value.model, exc.value.epoch) == (1, 1, alone.value.epoch)
        # Two folds diverge on the same step: the first of them is named.
        with pytest.raises(TrainingDiverged) as both:
            train_folds(*shared([(tame, replace(tc, seed=4)), (data, tc), (data, tc)]), net, specs)
        assert (both.value.fold, both.value.model) == (1, 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 4),
            ("batch_size", 8),
            ("learning_rate", 0.02),
            ("beta1", 0.8),
            ("beta2", 0.99),
            ("epsilon", 1e-7),
        ],
    )
    def test_train_configs_may_differ_only_in_seed(self, field, value):
        data = noisy_data()
        other = replace(self.tc(2), **{field: value})
        with pytest.raises(ValueError, match="differ only in seed"):
            train_folds(*shared([(data, self.tc(1)), (data, other)]), self.NET, MIXED_SPECS)

    def test_bike_shaped_folds_equal_training_each_pair_alone(self):
        # The paper's real-data net and losses: 3 folds of 650 rows at batch
        # 64, so each epoch ends on a 10-row batch. Layer 1 runs as one GEMM
        # per fold over all 7 models, which must give each model's bits.
        net = NetworkConfig(17, (14, 14))
        specs = [LossSpec.clf(c) for c in (1.0, 10.0, 100.0, 200.0, 1000.0, 1e4)] + [LossSpec.mse()]
        folds = [
            (noisy_data(n=650, d=17, seed=70 + s), TrainConfig(epochs=2, batch_size=64, seed=80 + s))
            for s in range(3)
        ]
        trained = train_folds(*shared(folds), net, specs)
        for (data, tc), models in zip(folds, trained):
            for spec, got in zip(specs, models):
                assert_same_params(got.params, train(data, net, spec, tc).params)

    @pytest.mark.parametrize("input_dim", [1, 2])
    @pytest.mark.parametrize("hidden", [(1,), (3,), (2, 5), (5, 1)])
    def test_narrow_layers_equal_training_each_pair_alone(self, hidden, input_dim):
        # Products against a layer of 1-3 units run as GEMV or DOT, whose
        # results depend on how each model's block is strided in memory.
        net = NetworkConfig(input_dim, hidden)
        rng = np.random.default_rng(5)
        folds = []
        for f in range(2):
            X = rng.normal(size=(20, input_dim))
            folds.append((Dataset(X, X.sum(axis=1) + rng.standard_cauchy(20)), self.tc(30 + f, 10)))
        for (fold, tc), models in zip(folds, train_folds(*shared(folds), net, MIXED_SPECS)):
            for spec, got in zip(MIXED_SPECS, models):
                assert_same_params(got.params, train(fold, net, spec, tc).params)

    def test_input_dim_1_runs_layer_1_as_one_gemm(self, monkeypatch):
        # The batch's ones column makes layer 1's inner dimension d+1 = 2,
        # so a 5-unit layer runs as one (w, 2) @ (2, M·h) GEMM per fold,
        # forward, and one (M·h, w) @ (w, 2) GEMM per fold for its weight
        # and bias gradients. Each pair must still have its bits alone,
        # and the values of the reference trainer.
        net = NetworkConfig(1, (5,))
        rng = np.random.default_rng(11)
        X = rng.normal(size=(90, 1)) * 2.0 + 1.0
        folds = []
        for f in range(2):
            rows = rng.choice(90, size=48, replace=False)
            folds.append((rows, X[rows, 0] + rng.standard_cauchy(48), self.tc(50 + f)))
        products, matmul = [], np.matmul

        def recorded(*args, out):
            products.append(out.shape)
            return matmul(*args, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        trained = train_folds(X, folds, net, MIXED_SPECS)
        monkeypatch.undo()
        for (rows, y, tc), models in zip(folds, trained):
            for spec, got in zip(MIXED_SPECS, models):
                assert_same_params(got.params, train(Dataset(X[rows], y), net, spec, tc).params)
                weights, biases = _reference_net.train(
                    X[rows], y, net.layer_sizes, spec.c, tc.seed, tc.epochs, tc.batch_size, tc.learning_rate
                )
                for a, b in zip(got.params.weights + got.params.biases, weights + biases):
                    np.testing.assert_allclose(a, b, rtol=1e-10, atol=0.0)
        n_models = len(MIXED_SPECS)
        assert (2, 16, n_models * 5) in products and (2, n_models * 5, 2) in products

    def test_caller_X_is_never_written(self):
        # Batches are gathered from a copy of X with a ones column appended.
        X, folds = shared([(noisy_data(n=40, seed=s), self.tc(70 + s)) for s in range(2)])
        before = X.copy()
        train_folds(X, folds, self.NET, MIXED_SPECS)
        assert X.tobytes() == before.tobytes()

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(st.data())
    def test_each_pair_equals_training_it_alone(self, data):
        hidden = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3), label="hidden")
        net = NetworkConfig(data.draw(st.integers(1, 3), label="input_dim"), hidden)
        specs = data.draw(st.lists(st.sampled_from(MIXED_SPECS), min_size=1, max_size=4), label="losses")
        batch = data.draw(st.integers(1, 12), label="batch_size")
        n_folds = data.draw(st.integers(1, 3), label="folds")
        rows = st.integers(1, 3 * batch + 1)
        if data.draw(st.booleans(), label="equal sizes"):
            sizes = [data.draw(rows, label="size")] * n_folds
        else:
            sizes = data.draw(st.lists(rows, min_size=n_folds, max_size=n_folds), label="sizes")
        rng = np.random.default_rng(len(sizes))
        folds = []
        for f, n in enumerate(sizes):
            X = rng.normal(size=(n, net.input_dim))
            folds.append((Dataset(X, X.sum(axis=1) + rng.standard_cauchy(n)), self.tc(90 + f, batch)))
        # Equal sizes give every fold the batch layout it has alone: the same arithmetic.
        same = assert_same_params if len(set(sizes)) == 1 else assert_close_params
        for (fold, tc), models in zip(folds, train_folds(*shared(folds), net, specs)):
            for spec, got in zip(specs, models):
                same(got.params, train(fold, net, spec, tc).params)

    @pytest.mark.parametrize("sizes", [(40, 40, 40), (40, 47, 33)])
    @pytest.mark.parametrize("hidden", [(3,), (5,)])
    def test_folds_as_rows_of_one_shared_matrix(self, hidden, sizes):
        # Three folds drawn from one 60-row X, overlapping and in no row
        # order, each with targets of its own. At batch 16, 40, 47 and 33
        # rows end each epoch on batches of 8, 15 and 1 rows, padded to 15.
        # A last hidden layer of 3 units (below _NARROW) sends the output
        # delta through the broadcast product, one of 5 through the
        # block-diagonal GEMM.
        net = NetworkConfig(3, hidden)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        rows = [rng.choice(60, size=n, replace=False) for n in sizes]
        ys = [X[r].sum(axis=1) + rng.standard_cauchy(n) for r, n in zip(rows, sizes)]
        tcs = [self.tc(20 + f) for f in range(3)]
        trained = train_folds(X, list(zip(rows, ys, tcs)), net, MIXED_SPECS)
        copies = [(Dataset(X[r], y), tc) for r, y, tc in zip(rows, ys, tcs)]
        # Gathering from the shared X is exact: the same bits as the folds
        # given as matrices of their own, padding included.
        for got, want in zip(trained, train_folds(*shared(copies), net, MIXED_SPECS)):
            for a, b in zip(got, want):
                assert_same_params(a.params, b.params)
                assert np.array_equal(a.scaler.mean, b.scaler.mean)
                assert np.array_equal(a.scaler.scale, b.scaler.scale)
        # Alone, a fold's last batch is not padded, which can change the
        # bits of a batch sum; with equal sizes the layouts agree.
        same = assert_same_params if len(set(sizes)) == 1 else assert_close_params
        for (data, tc), models in zip(copies, trained):
            for spec, got in zip(MIXED_SPECS, models):
                same(got.params, train(data, net, spec, tc).params)

    def test_rows_must_index_the_shared_matrix(self):
        X, y = noisy_data(n=20).X, np.zeros(5)
        for rows in (np.arange(16, 21), np.arange(-1, 4), np.arange(5.0), np.arange(10).reshape(2, 5)):
            with pytest.raises(ValueError, match="indices into the 20 rows of X"):
                train_folds(X, [(rows, y, self.tc(1))], self.NET, MIXED_SPECS)
        with pytest.raises(ValueError, match="5 rows but 4 targets"):
            train_folds(X, [(np.arange(5), np.zeros(4), self.tc(1))], self.NET, MIXED_SPECS)
        with pytest.raises(ValueError, match="empty training data"):
            train_folds(X, [(np.arange(5), y, self.tc(1)), ([], [], self.tc(2))], self.NET, MIXED_SPECS)
        with pytest.raises(ValueError, match=r"\(n, d\) matrix"):
            train_folds(X[:, 0], [(np.arange(5), y, self.tc(1))], self.NET, MIXED_SPECS)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="at least one fold"):
            train_folds(noisy_data().X, [], self.NET, MIXED_SPECS)
        with pytest.raises(ValueError, match="features"):
            folds = [(noisy_data(d=2), self.tc(1)), (noisy_data(d=2), self.tc(2))]
            train_folds(*shared(folds), self.NET, MIXED_SPECS)
        X, folds = shared([(noisy_data(seed=s), self.tc(s)) for s in range(2)])
        rows, y, tc = folds[1]
        for bad in (np.nan, np.inf, -np.inf):
            bad_y = y.copy()
            bad_y[7] = bad
            with pytest.raises(ValueError, match="fold 1 has a non-finite target"):
                train_folds(X, [folds[0], (rows, bad_y, tc)], self.NET, MIXED_SPECS)
            # an entry of X that no fold reads is refused too
            with pytest.raises(ValueError, match="X has a non-finite entry"):
                train_folds(np.vstack([X, [[0.0, bad, 0.0]]]), folds, self.NET, MIXED_SPECS)


class TestDivergenceCheck:
    """A step computes the batch losses, for the exact check, only when its
    largest squared residual is NaN or above ``nets._finite_loss_bound``."""

    NET = NetworkConfig(3, (6, 5))
    # c^2 = 1e-300, near the smallest normal float that LossSpec accepts.
    # (r/c)^2 stays finite for |r| up to about 1.3e4, beyond these folds'
    # residuals, so the loss reports no divergence.
    TINY_C = LossSpec.clf(1e-150)

    @staticmethod
    def folds():
        # At batch 32, 64 rows make 2 batches and 65 and 75 make 3: the
        # 65-row fold's 1-row last batch is padded to the 75-row fold's 11
        # rows, and the 64-row fold sits out that step.
        return [
            (noisy_data(n=n, seed=s), TrainConfig(epochs=3, batch_size=32, learning_rate=0.01, seed=50 + s))
            for s, n in enumerate((64, 65, 75))
        ]

    @staticmethod
    def count_loss_calls(monkeypatch):
        from cauchybench import nets

        calls = []
        loss_into = nets._loss_into

        def spy(*args):
            calls.append(1)
            loss_into(*args)

        monkeypatch.setattr(nets, "_loss_into", spy)
        return calls

    @pytest.mark.parametrize("specs", [MIXED_SPECS, MIXED_SPECS + (TINY_C,)], ids=["mixed", "tiny-c"])
    def test_exact_check_on_every_step_gives_the_same_bits(self, monkeypatch, specs):
        from cauchybench import nets

        X, folds = shared(self.folds())
        default = train_folds(X, folds, self.NET, specs)
        monkeypatch.setattr(nets, "_LOSS_BOUND", 0.0)
        calls = self.count_loss_calls(monkeypatch)
        exact = train_folds(X, folds, self.NET, specs)
        assert len(calls) == 3 * 3  # epochs x steps per epoch
        for a, b in zip(default, exact):
            for x, y in zip(a, b):
                assert_same_params(x.params, y.params)

    def test_a_normal_run_computes_no_loss(self, monkeypatch):
        calls = self.count_loss_calls(monkeypatch)
        train_folds(*shared(self.folds()), self.NET, MIXED_SPECS)
        assert calls == []

    def test_a_nan_residual_takes_the_exact_check(self, monkeypatch):
        # A NaN squared residual passes no bound: its step computes the loss.
        # The NaN comes from fold 1's output bias, since train_folds refuses
        # a NaN target or feature as an argument error.
        from cauchybench import nets

        X, folds = shared(self.folds())
        init_params = nets.init_params

        def nan_bias_in_fold_1(net, seed):
            params = init_params(net, seed)
            if seed == folds[1][2].seed:
                params.biases[-1][:] = np.nan
            return params

        monkeypatch.setattr(nets, "init_params", nan_bias_in_fold_1)
        with pytest.raises(TrainingDiverged, match="non-finite prediction") as exc:
            train_folds(X, folds, self.NET, MIXED_SPECS)
        assert (exc.value.epoch, exc.value.fold, exc.value.model) == (0, 1, 0)

    def test_a_c_whose_squared_ratio_overflows_trains(self):
        # At c = 2e-154 every step takes the exact check, and (r/c)^2 is inf
        # for these folds' residuals, while the losses stay near 1e-305.
        X, folds = shared(self.folds())
        trained = train_folds(X, folds, self.NET, (LossSpec.clf(2e-154), LossSpec.mse()))
        for models in trained:
            for model in models:
                assert all(np.all(np.isfinite(w)) for w in model.params.weights)

    @pytest.mark.parametrize("batch_size", [1, 32])
    @pytest.mark.parametrize(
        "specs",
        [(LossSpec.mse(),), MIXED_SPECS, (TINY_C, LossSpec.mse()), (LossSpec.clf(5e102), LossSpec.clf(1e3))],
        ids=["mse", "mixed", "tiny-c", "huge-c"],
    )
    def test_losses_at_the_bound_are_finite(self, batch_size, specs):
        from cauchybench.losses import _grad_into, _loss_columns, _loss_into
        from cauchybench.nets import _finite_loss_bound

        columns = _loss_columns(specs)
        bound = _finite_loss_bound(columns, batch_size)
        r = np.full((1, len(specs), batch_size), np.sqrt(bound))  # r^2 at the bound, to rounding
        r[..., ::2] *= -1.0
        rr, loss, grad, scratch = (np.empty_like(r) for _ in range(4))
        with np.errstate(over="ignore", invalid="ignore"):  # c^2 r can overflow, as in training
            _grad_into(r, columns, rr, grad, scratch)
        _loss_into(r, rr, columns, loss)
        assert np.all(np.isfinite(loss.sum(axis=-1)))


class TestReferenceGradients:
    """Acceptance criterion c2's property on ``tests/_reference_net``, an
    oracle written apart from ``nets``: its per-sample backprop equals
    central finite differences of its own loss."""

    @staticmethod
    def safe_net(sizes, rng):
        # Random normal parameters and one sample whose hidden pre-activations
        # keep clear of the ReLU kink, where finite differences break down.
        while True:
            weights = [rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
            biases = [rng.normal(size=o) for o in sizes[1:]]
            x = rng.normal(size=sizes[0])
            _, _, pre = _reference_net.forward(weights, biases, x)
            if min(np.min(np.abs(z)) for z in pre) > 1e-4:
                return weights, biases, x

    @pytest.mark.parametrize("c", [None, 1.0], ids=["mse", "clf-1"])
    @pytest.mark.parametrize("sizes", [(2, 10, 1), (8, 14, 14, 1)], ids=["2-10-1", "8-14-14-1"])
    def test_sample_grads_match_finite_differences(self, sizes, c):
        h = 1e-6
        rng = np.random.default_rng(20240501)
        for _ in range(10):
            weights, biases, x = self.safe_net(sizes, rng)
            y = float(rng.normal())

            def loss():
                return _reference_net.loss(y - _reference_net.forward(weights, biases, x)[0], c)

            grads_w, grads_b = _reference_net.sample_grads(weights, biases, x, y, c)
            for arr, analytic in zip(weights + biases, grads_w + grads_b):
                fd = np.empty_like(arr)
                for i in np.ndindex(arr.shape):
                    orig = arr[i]
                    arr[i] = orig + h
                    up = loss()
                    arr[i] = orig - h
                    dn = loss()
                    arr[i] = orig
                    fd[i] = (up - dn) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(fd))))
                assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7 * scale)


class TestAgainstReferenceTrainer:
    """``train_folds`` against ``tests/_reference_net``, a per-sample
    trainer written apart from ``nets``."""

    SPECS = (LossSpec.mse(), LossSpec.clf(0.5), LossSpec.clf(10.0))

    @pytest.mark.parametrize("sizes", [(33, 33), (32, 33)], ids=["last-batch-of-one", "sit-out"])
    @pytest.mark.parametrize("hidden", [(3,), (5,), (14, 14)])
    def test_train_folds_matches_reference(self, hidden, sizes):
        # At batch 16, 33 rows end each epoch on a 1-row batch, which runs
        # layer 1 per model beside the full batches' one GEMM per fold
        # (hidden (5,) and (14, 14)); 32 rows make one batch fewer, so that
        # fold sits out the last step of every epoch.
        net = NetworkConfig(4, hidden)
        rng = np.random.default_rng(sum(hidden) + sizes[0])
        X = rng.normal(size=(80, 4)) * 3.0 + 1.0
        folds = []
        for f, n in enumerate(sizes):
            rows = rng.choice(80, size=n, replace=False)
            y = X[rows] @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.standard_cauchy(n)
            tc = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=7 + f)
            folds.append((rows, y, tc))
        trained = train_folds(X, folds, net, self.SPECS)
        for (rows, y, tc), models in zip(folds, trained):
            for spec, model in zip(self.SPECS, models):
                weights, biases = _reference_net.train(
                    X[rows], y, net.layer_sizes, spec.c, tc.seed, tc.epochs, tc.batch_size, tc.learning_rate
                )
                for got, want in zip(model.params.weights + model.params.biases, weights + biases):
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
