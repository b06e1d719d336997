"""Optimizer tests: update arithmetic, λ semantics, schedule, laziness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lexcl import optim
from lexcl.embeddings import EmbeddingTable
from lexcl.errors import InvalidInputError, NumericError


def table_of(rows):
    return EmbeddingTable(np.asarray(rows, dtype=np.float32))


def step(table, grads, lam, cfg, state):
    """optim.step on a {row: gradient} map."""
    rows = sorted(grads)
    optim.step(table, np.array(rows, dtype=np.int64), lam,
               np.array([grads[j] for j in rows], dtype=np.float64)
               .reshape(len(rows), table.dim), cfg, state)


def flat_cfg(kind="sgd", lr=0.1, wd=0.05):
    # warmup 0 so the first step already uses lr_peak
    return optim.OptimConfig(kind=kind, lr_peak=lr, weight_decay=wd,
                             warmup_fraction=0.0, total_steps=10)


class TestSgdStep:
    def test_hand_case(self):
        t = table_of([[1.0]])
        step(t, {0: np.array([0.2])}, np.array([1.0]),
                   flat_cfg(lr=0.1, wd=0.05), optim.OptimState())
        assert np.isclose(t.matrix[0, 0], 0.975, atol=1e-7)

    def test_lambda_zero_bitwise_unchanged(self):
        t = table_of([[0.3, -0.7], [1.5, 2.5]])
        before = t.matrix.copy()
        for _ in range(5):
            step(t, {0: np.array([9.0, -9.0]), 1: np.array([1.0, 1.0])},
                       np.array([0.0, 1.0]), flat_cfg(), optim.OptimState())
        assert t.matrix[0].tobytes() == before[0].tobytes()
        assert t.matrix[1].tobytes() != before[1].tobytes()

    def test_lambda_one_equals_reference(self):
        rng = np.random.default_rng(0)
        for kind in ("sgd", "adamw"):
            t = table_of(rng.normal(size=(4, 3)))
            ref = t.copy()
            cfg = flat_cfg(kind=kind)
            s1, s2 = optim.OptimState(), oracles.DictState()
            for _ in range(10):
                grads = {int(j): rng.normal(size=3)
                         for j in rng.choice(4, size=2, replace=False)}
                # reference: plain unscaled update (lambda absent entirely)
                step(t, grads, np.ones(4), cfg, s1)
                reference_step(ref, grads, cfg, s2)
            assert t.matrix.tobytes() == ref.matrix.tobytes()

    def test_displacement_monotone_in_lambda(self):
        disp = []
        for lam in (0.0, 0.25, 0.5, 1.0):
            t = table_of([[1.0, 1.0]])
            step(t, {0: np.array([0.5, -0.5])}, np.array([lam]),
                       flat_cfg(), optim.OptimState())
            disp.append(np.linalg.norm(t.matrix[0] - np.array([1.0, 1.0])))
        assert disp == sorted(disp)
        assert len(set(disp)) == len(disp)

    def test_lazy_rows_untouched(self):
        rng = np.random.default_rng(1)
        t = table_of(rng.normal(size=(5, 2)))
        before = t.matrix.copy()
        step(t, {2: np.array([1.0, 1.0])}, np.ones(5),
                   flat_cfg(kind="adamw"), optim.OptimState())
        for j in (0, 1, 3, 4):
            assert t.matrix[j].tobytes() == before[j].tobytes()

    def test_nan_grad_aborts(self):
        t = table_of([[1.0]])
        with pytest.raises(NumericError):
            step(t, {0: np.array([np.nan])}, np.ones(1),
                       flat_cfg(), optim.OptimState())


def reference_step(table, grads, cfg, state):
    """Unscaled textbook update, written independently of optim.step."""
    lr = optim.lr_at(state.step_count, cfg)
    state.step_count += 1
    for j in sorted(grads):
        g = np.asarray(grads[j], dtype=np.float64)
        theta = table.matrix[j].astype(np.float64)
        if cfg.kind == "sgd":
            theta = theta * (1.0 - lr * cfg.weight_decay) - lr * g
        else:
            theta = theta - lr * cfg.weight_decay * theta
            m = state.m.get(j, np.zeros_like(theta))
            v = state.v.get(j, np.zeros_like(theta))
            t = state.t.get(j, 0) + 1
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            theta = theta - lr * (m / (1 - cfg.beta1 ** t)) / (
                np.sqrt(v / (1 - cfg.beta2 ** t)) + cfg.eps)
            state.m[j], state.v[j], state.t[j] = m, v, t
        table.matrix[j] = theta.astype(np.float32)


class TestSchedule:
    def test_step_zero_is_zero(self):
        cfg = optim.OptimConfig(lr_peak=1.0, warmup_fraction=0.1, total_steps=100)
        assert optim.lr_at(0, cfg) == 0.0

    def test_warmup_end_is_peak(self):
        cfg = optim.OptimConfig(lr_peak=1.0, warmup_fraction=0.1, total_steps=100)
        assert optim.lr_at(10, cfg) == 1.0
        assert optim.lr_at(73, cfg) == 1.0

    def test_midpoint_half_peak(self):
        cfg = optim.OptimConfig(lr_peak=2.0, warmup_fraction=0.1, total_steps=100)
        assert abs(optim.lr_at(5, cfg) - 1.0) <= 2.0 / 10


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(InvalidInputError):
            optim.OptimConfig(lr_peak=0.0)
        with pytest.raises(InvalidInputError):
            optim.OptimConfig(weight_decay=-1.0)
        with pytest.raises(InvalidInputError):
            optim.OptimConfig(warmup_fraction=1.0)
        with pytest.raises(InvalidInputError):
            optim.OptimConfig(kind="rmsprop")


@given(seed=st.integers(0, 100_000),
       kind=st.sampled_from(["sgd", "adamw"]),
       n_steps=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_lambda_zero_invariance_property(seed, kind, n_steps):
    """Rows with λ=0 are bitwise unchanged across any random task."""
    rng = np.random.default_rng(seed)
    rows = 6
    t = table_of(rng.normal(size=(rows, 3)))
    lam = rng.choice([0.0, 0.5, 1.0], size=rows)
    before = t.matrix.copy()
    state = optim.OptimState()
    cfg = optim.OptimConfig(kind=kind, lr_peak=0.3, weight_decay=0.05,
                            warmup_fraction=0.25, total_steps=n_steps)
    for _ in range(n_steps):
        touched = rng.choice(rows, size=3, replace=False)
        step(t, {int(j): rng.normal(size=3) for j in touched},
                   lam, cfg, state)
    for j in range(rows):
        if lam[j] == 0.0:
            assert t.matrix[j].tobytes() == before[j].tobytes()


@given(seed=st.integers(0, 100_000),
       kind=st.sampled_from(["sgd", "adamw"]),
       n_steps=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_matches_row_by_row_oracle(seed, kind, n_steps):
    """The vectorised step equals the row-by-row one bit for bit, with
    lambda in {0, 0.5, 1} and rows touched in only some steps."""
    rng = np.random.default_rng(seed)
    rows = 7
    t = table_of(rng.normal(size=(rows, 3)))
    ref = t.copy()
    lam = rng.choice([0.0, 0.5, 1.0], size=rows)
    cfg = optim.OptimConfig(kind=kind, lr_peak=0.3, weight_decay=0.05,
                            warmup_fraction=0.25, total_steps=n_steps)
    state, ref_state = optim.OptimState(), oracles.DictState()
    for _ in range(n_steps):
        touched = rng.choice(rows, size=int(rng.integers(1, rows)),
                             replace=False)
        grads = {int(j): rng.normal(size=3) for j in touched}
        step(t, grads, lam, cfg, state)
        oracles.step(ref, grads, lam, cfg, ref_state)
        assert t.matrix.tobytes() == ref.matrix.tobytes()
    if kind == "adamw":
        assert state.t.tolist() == [ref_state.t.get(j, 0) for j in range(rows)]


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_lambda_zero_rows_are_never_written(kind):
    """Writing a lambda=0 row back, even unchanged in value, would turn
    its -0.0 entries into +0.0 under a negative gradient."""
    t = table_of([[-0.0, -0.0], [1.0, 1.0]])
    state = optim.OptimState()
    step(t, {0: np.array([-1.0, -2.0]), 1: np.array([-1.0, -2.0])},
         np.array([0.0, 1.0]), flat_cfg(kind=kind), state)
    assert t.matrix[0].tobytes() == np.array([-0.0, -0.0], np.float32).tobytes()
    if kind == "adamw":
        assert state.t.tolist() == [0, 1]


def test_moments_grow_with_the_table():
    cfg = flat_cfg(kind="adamw")
    state = optim.OptimState()
    small = table_of(np.ones((2, 3)))
    step(small, {1: np.ones(3)}, np.ones(2), cfg, state)
    m_row = state.m[1].copy()
    big = table_of(np.ones((5, 3)))
    step(big, {4: np.ones(3)}, np.ones(5), cfg, state)
    assert state.m.shape == (5, 3) and state.t.tolist() == [0, 1, 0, 0, 1]
    assert np.array_equal(state.m[1], m_row)
