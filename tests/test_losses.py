"""Loss tests: hand cases, brute-force oracles, finite differences, invariances."""

import numpy as np
import pytest

from lexcl.losses import FeatureBatch, LossConfig, cl_loss, cm_loss, total_loss
from lexcl.errors import DegenerateFeatureError, InvalidInputError


def brute_cm(R_I, R_E, R_F, tau):
    """Materialize every cosine term; no vectorization shared with the impl."""
    K = R_I.shape[0]

    def cos(u, v):
        return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    s = [[cos(R_I[k], R_F[l]) / tau for l in range(K)] for k in range(K)]
    li = 0.0
    lt = 0.0
    for k in range(K):
        li += -np.log(np.exp(s[k][k]) / sum(np.exp(s[k][l]) for l in range(K)))
        lt += -np.log(np.exp(s[k][k]) / sum(np.exp(s[j][k]) for j in range(K)))
    return 0.5 * (li / K + lt / K)


def brute_cl(R_E, R_F):
    K = R_E.shape[0]
    return sum(float(np.sum((R_E[k] - R_F[k]) ** 2)) for k in range(K)) / (2 * K)


def random_batch(rng, K, d=6):
    return FeatureBatch(R_I=rng.normal(size=(K, d)),
                        R_E=rng.normal(size=(K, d)),
                        R_F=rng.normal(size=(K, d)))


class TestCmLoss:
    def test_single_pair_zero(self):
        rng = np.random.default_rng(0)
        b = random_batch(rng, 1)
        loss, _ = cm_loss(b, tau=0.07)
        assert abs(loss) < 1e-12

    def test_hand_case_k2(self):
        R = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = FeatureBatch(R_I=R, R_E=R, R_F=R)
        loss, _ = cm_loss(b, tau=1.0)
        assert abs(loss - np.log(1 + np.exp(-1.0))) < 1e-6

    def test_brute_force_oracle_100_batches(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            K = int(rng.integers(1, 5))
            b = random_batch(rng, K)
            loss, _ = cm_loss(b, tau=0.07)
            assert abs(loss - brute_cm(b.R_I, b.R_E, b.R_F, 0.07)) < 1e-6

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(2)
        b = random_batch(rng, 4)
        _, grad = cm_loss(b, tau=0.07)
        step = 1e-6
        for k in range(4):
            for c in range(6):
                plus = b.R_F.copy()
                minus = b.R_F.copy()
                plus[k, c] += step
                minus[k, c] -= step
                num = (brute_cm(b.R_I, b.R_E, plus, 0.07)
                       - brute_cm(b.R_I, b.R_E, minus, 0.07)) / (2 * step)
                rel = abs(num - grad[k, c]) / max(abs(num), abs(grad[k, c]), 1e-8)
                assert rel <= 1e-4

    def test_zero_norm_row_rejected(self):
        b = FeatureBatch(R_I=np.array([[1.0, 0.0], [0.0, 0.0]]),
                         R_E=np.ones((2, 2)), R_F=np.ones((2, 2)))
        with pytest.raises(DegenerateFeatureError, match="row 1"):
            cm_loss(b, tau=0.07)

    @pytest.mark.parametrize("branch", ["R_I", "R_F"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, branch, bad):
        """A NaN or infinite feature names its branch and row rather than
        giving a NaN loss."""
        b = random_batch(np.random.default_rng(6), 4)
        getattr(b, branch)[2, 1] = bad
        with pytest.raises(DegenerateFeatureError,
                           match=f"{branch}: non-finite row 2"):
            cm_loss(b, tau=0.07)

    def test_scale_invariance_of_cosine(self):
        rng = np.random.default_rng(3)
        b = random_batch(rng, 3)
        loss1, _ = cm_loss(b, tau=0.07)
        scaled = b.R_F.copy()
        scaled[1] *= 7.3
        loss2, _ = cm_loss(FeatureBatch(b.R_I, b.R_E, scaled), tau=0.07)
        assert abs(loss1 - loss2) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        b = random_batch(rng, 4)
        perm = rng.permutation(4)
        bp = FeatureBatch(b.R_I[perm], b.R_E[perm], b.R_F[perm])
        assert abs(cm_loss(b, 0.07)[0] - cm_loss(bp, 0.07)[0]) < 1e-10
        assert abs(cl_loss(b)[0] - cl_loss(bp)[0]) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = random_batch(rng, int(rng.integers(1, 5)))
            assert cm_loss(b, 0.07)[0] >= 0.0
            assert cl_loss(b)[0] >= 0.0


class TestClLoss:
    def test_equal_features_zero(self):
        rng = np.random.default_rng(6)
        R = rng.normal(size=(3, 4))
        b = FeatureBatch(R_I=R, R_E=R.copy(), R_F=R.copy())
        loss, grad = cl_loss(b)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_hand_case(self):
        b = FeatureBatch(R_I=np.ones((1, 2)),
                         R_E=np.array([[1.0, 0.0]]),
                         R_F=np.array([[0.0, 1.0]]))
        loss, grad = cl_loss(b)
        assert abs(loss - 1.0) < 1e-12
        assert np.allclose(grad, [[-1.0, 1.0]])

    def test_brute_force_oracle_100_batches(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            K = int(rng.integers(1, 5))
            b = random_batch(rng, K)
            loss, _ = cl_loss(b)
            assert abs(loss - brute_cl(b.R_E, b.R_F)) < 1e-6


class TestTotalLoss:
    def test_endpoints(self):
        rng = np.random.default_rng(8)
        b = random_batch(rng, 3)
        l_cl, g_cl = cl_loss(b)
        l_cm, g_cm = cm_loss(b, 0.07)
        lt, gt = total_loss(b, LossConfig(tau=0.07, gamma_cm=0.0, gamma_cl=1.0))
        assert lt == l_cl and np.array_equal(gt, g_cl)
        lt, gt = total_loss(b, LossConfig(tau=0.07, gamma_cm=1.0, gamma_cl=0.0))
        assert lt == l_cm and np.array_equal(gt, g_cm)

    def test_default_weights_hand_value(self):
        R = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = FeatureBatch(R_I=R, R_E=R, R_F=R)
        loss, _ = total_loss(b, LossConfig(tau=1.0))
        assert abs(loss - 0.01 * np.log(1 + np.exp(-1.0))) < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(9)
        b = random_batch(rng, 4)
        cfg = LossConfig(tau=0.07, gamma_cm=0.3, gamma_cl=2.0)
        lt, gt = total_loss(b, cfg)
        l_cm, g_cm = cm_loss(b, 0.07)
        l_cl, g_cl = cl_loss(b)
        assert abs(lt - (0.3 * l_cm + 2.0 * l_cl)) < 1e-12
        assert np.allclose(gt, 0.3 * g_cm + 2.0 * g_cl)

    def test_invalid_tau(self):
        with pytest.raises(InvalidInputError):
            LossConfig(tau=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            FeatureBatch(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(InvalidInputError):  # a stack of batches
            FeatureBatch(*(np.ones((2, 2, 3)) for _ in range(3)))
