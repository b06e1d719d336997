"""Optimizer tests: update arithmetic, λ semantics, schedule, laziness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lexcl import optim
from lexcl.errors import InvalidInputError, NumericError


def table_of(rows):
    return np.asarray(rows, dtype=np.float32)


def step(table, grads, lam, cfg, state):
    """optim.step on a {row: gradient} map."""
    rows = sorted(grads)
    optim.step(table, np.array(rows, dtype=np.int64), lam,
               np.array([grads[j] for j in rows], dtype=np.float64)
               .reshape(len(rows), table.shape[1]), cfg, state)


def flat_cfg(kind="sgd", lr=0.1, wd=0.05):
    # warmup 0 so the first step already uses lr_peak
    return optim.OptimConfig(kind=kind, lr_peak=lr, weight_decay=wd,
                             warmup_fraction=0.0)


def new_state(table, cfg, total_steps=10):
    return optim.OptimState(table.shape, total_steps, cfg.kind)


class TestSgdStep:
    def test_hand_case(self):
        t = table_of([[1.0]])
        cfg = flat_cfg(lr=0.1, wd=0.05)
        step(t, {0: np.array([0.2])}, np.array([1.0]), cfg, new_state(t, cfg))
        assert np.isclose(t[0, 0], 0.975, atol=1e-7)

    def test_lambda_zero_bitwise_unchanged(self):
        t = table_of([[0.3, -0.7], [1.5, 2.5]])
        before = t.copy()
        cfg = flat_cfg()
        for _ in range(5):
            step(t, {0: np.array([9.0, -9.0]), 1: np.array([1.0, 1.0])},
                       np.array([0.0, 1.0]), cfg, new_state(t, cfg))
        assert t[0].tobytes() == before[0].tobytes()
        assert t[1].tobytes() != before[1].tobytes()

    def test_lambda_one_equals_reference(self):
        rng = np.random.default_rng(0)
        for kind in ("sgd", "adamw"):
            t = table_of(rng.normal(size=(4, 3)))
            ref = t.copy()
            cfg = flat_cfg(kind=kind)
            s1, s2 = new_state(t, cfg), oracles.DictState(10)
            for _ in range(10):
                grads = {int(j): rng.normal(size=3)
                         for j in rng.choice(4, size=2, replace=False)}
                # reference: plain unscaled update (lambda absent entirely)
                step(t, grads, np.ones(4), cfg, s1)
                reference_step(ref, grads, cfg, s2)
            assert t.tobytes() == ref.tobytes()

    def test_displacement_monotone_in_lambda(self):
        disp = []
        for lam in (0.0, 0.25, 0.5, 1.0):
            t = table_of([[1.0, 1.0]])
            cfg = flat_cfg()
            step(t, {0: np.array([0.5, -0.5])}, np.array([lam]), cfg,
                 new_state(t, cfg))
            disp.append(np.linalg.norm(t[0] - np.array([1.0, 1.0])))
        assert disp == sorted(disp)
        assert len(set(disp)) == len(disp)

    def test_lazy_rows_untouched(self):
        rng = np.random.default_rng(1)
        t = table_of(rng.normal(size=(5, 2)))
        before = t.copy()
        cfg = flat_cfg(kind="adamw")
        step(t, {2: np.array([1.0, 1.0])}, np.ones(5), cfg, new_state(t, cfg))
        for j in (0, 1, 3, 4):
            assert t[j].tobytes() == before[j].tobytes()

    def test_nan_grad_aborts(self):
        t = table_of([[1.0]])
        cfg = flat_cfg()
        with pytest.raises(NumericError):
            step(t, {0: np.array([np.nan])}, np.ones(1), cfg,
                 new_state(t, cfg))


class TestWrites:
    """A step checks the values it writes: one that float32 cannot hold
    is a NumericError naming the step and the row, raised before the cast
    (which would warn of an overflow and write inf) and before any row
    is written."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sgd_finite_gradient_past_float32(self):
        t = table_of([[0.5, 0.5], [0.25, -0.25], [1.0, 2.0]])
        cfg = flat_cfg()
        state = new_state(t, cfg)
        step(t, {0: np.array([0.1, 0.2]), 1: np.array([0.3, 0.4])},
             np.ones(3), cfg, state)
        before = t.copy()
        with pytest.raises(NumericError, match=r"^step 2: row 2 "):
            step(t, {1: np.array([0.1, 0.1]), 2: np.array([0.0, 1e300])},
                 np.ones(3), cfg, state)
        assert t.tobytes() == before.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["sgd", "adamw"])
    def test_step_past_float64(self, kind):
        """lr 1e300 times a step of about 1e100 overflows float64 itself:
        the same NumericError, with no overflow warning."""
        t = table_of([[0.5, 0.5]])
        cfg = flat_cfg(kind=kind, lr=1e300, wd=0.0)
        with pytest.raises(NumericError, match=r"^step 1: row 0 "):
            step(t, {0: np.array([1e100, 1.0])}, np.ones(1), cfg,
                 new_state(t, cfg))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_adamw_step_past_float32(self):
        """AdamW's step is about lr whatever the gradient; lr 1e39 takes
        a row past float32's largest value, 3.4e38."""
        t = table_of([[0.5, 0.5], [0.25, -0.25]])
        cfg = flat_cfg(kind="adamw", lr=1e39, wd=0.0)
        with pytest.raises(NumericError, match=r"^step 1: row 1 "):
            step(t, {1: np.array([1.0, 1.0])}, np.ones(2), cfg,
                 new_state(t, cfg))

    def test_largest_float32_is_written(self):
        """A value that rounds to float32's largest one is still finite."""
        top = float(np.finfo(np.float32).max)
        t = table_of([[0.0]])
        cfg = flat_cfg(lr=1.0, wd=0.0)
        step(t, {0: np.array([-top * (1 + 2.0 ** -25)])}, np.ones(1), cfg,
             new_state(t, cfg))
        assert t[0, 0] == np.float32(top)


class TestConfig:
    @pytest.mark.parametrize("lr, wd", [(1.0, 2.0), (10000.0, 0.005),
                                        (0.01, 100.0), (1.0, 3.0),
                                        (1.0, 1.99), (0.01, 66.0), (1.0, 1.0)])
    def test_diverging_decay_rejected(self, lr, wd):
        """lr * weight_decay >= 1, lr the larger of optim.lr and
        pretraining's 0.03, makes the decay factor <= 0."""
        with pytest.raises(InvalidInputError,
                           match=r"optim\.weight_decay .* optim\.lr"):
            flat_cfg(lr=lr, wd=wd)

    @pytest.mark.parametrize("lr, wd", [(1.0, 0.99), (0.01, 33.0),
                                        (1e39, 0.0)])
    def test_converging_decay_accepted(self, lr, wd):
        assert flat_cfg(lr=lr, wd=wd).weight_decay == wd


def reference_step(table, grads, cfg, state):
    """Unscaled textbook update, written independently of optim.step."""
    lr = optim.lr_at(state.step_count, state.total_steps, cfg)
    state.step_count += 1
    for j in sorted(grads):
        g = np.asarray(grads[j], dtype=np.float64)
        theta = table[j].astype(np.float64)
        if cfg.kind == "sgd":
            theta = theta * (1.0 - lr * cfg.weight_decay) - lr * g
        else:
            theta = theta - lr * cfg.weight_decay * theta
            m = state.m.get(j, np.zeros_like(theta))
            v = state.v.get(j, np.zeros_like(theta))
            t = state.t.get(j, 0) + 1
            m = optim.BETA1 * m + (1 - optim.BETA1) * g
            v = optim.BETA2 * v + (1 - optim.BETA2) * g * g
            theta = theta - lr * (m / (1 - optim.BETA1 ** t)) / (
                np.sqrt(v / (1 - optim.BETA2 ** t)) + optim.EPS)
            state.m[j], state.v[j], state.t[j] = m, v, t
        table[j] = theta.astype(np.float32)


class TestSchedule:
    def test_step_zero_is_zero(self):
        cfg = optim.OptimConfig(lr_peak=1.0, warmup_fraction=0.1)
        assert optim.lr_at(0, 100, cfg) == 0.0

    def test_warmup_end_is_peak(self):
        cfg = optim.OptimConfig(lr_peak=1.0, warmup_fraction=0.1)
        assert optim.lr_at(10, 100, cfg) == 1.0
        assert optim.lr_at(73, 100, cfg) == 1.0

    def test_midpoint_half_peak(self):
        cfg = optim.OptimConfig(lr_peak=2.0, warmup_fraction=0.1)
        assert abs(optim.lr_at(5, 100, cfg) - 1.0) <= 2.0 / 10


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
    before = t.copy()
    cfg = optim.OptimConfig(kind=kind, lr_peak=0.3, weight_decay=0.05,
                            warmup_fraction=0.25)
    state = new_state(t, cfg, n_steps)
    for _ in range(n_steps):
        touched = rng.choice(rows, size=3, replace=False)
        step(t, {int(j): rng.normal(size=3) for j in touched},
                   lam, cfg, state)
    for j in range(rows):
        if lam[j] == 0.0:
            assert t[j].tobytes() == before[j].tobytes()


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
                            warmup_fraction=0.25)
    state, ref_state = new_state(t, cfg, n_steps), oracles.DictState(n_steps)
    for _ in range(n_steps):
        touched = rng.choice(rows, size=int(rng.integers(1, rows)),
                             replace=False)
        grads = {int(j): rng.normal(size=3) for j in touched}
        step(t, grads, lam, cfg, state)
        oracles.step(ref, grads, lam, cfg, ref_state)
        assert t.tobytes() == ref.tobytes()
    if kind == "adamw":
        assert state.t.tolist() == [ref_state.t.get(j, 0) for j in range(rows)]


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_lambda_zero_rows_are_never_written(kind):
    """Writing a lambda=0 row back, even unchanged in value, would turn
    its -0.0 entries into +0.0 under a negative gradient."""
    t = table_of([[-0.0, -0.0], [1.0, 1.0]])
    cfg = flat_cfg(kind=kind)
    state = new_state(t, cfg)
    step(t, {0: np.array([-1.0, -2.0]), 1: np.array([-1.0, -2.0])},
         np.array([0.0, 1.0]), cfg, state)
    assert t[0].tobytes() == np.array([-0.0, -0.0], np.float32).tobytes()
    if kind == "adamw":
        assert state.t.tolist() == [0, 1]


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_lambda_scales_the_step(kind):
    """One step on the same rows and gradients moves a row with lambda c
    exactly c times as far as a row with lambda 1, to float32 rounding.
    Under AdamW a lambda on the gradient would cancel in m / sqrt(v)."""
    rng = np.random.default_rng(3)
    lams = np.array([1.0, 0.5, 0.25, 0.1])
    row = rng.uniform(0.5, 1.0, size=4)
    t = table_of(np.tile(row, (len(lams), 1)))
    before = t.astype(np.float64)
    cfg = flat_cfg(kind=kind, lr=0.01)
    g = rng.normal(size=4)
    step(t, {j: g for j in range(len(lams))}, lams, cfg, new_state(t, cfg))
    moved = before - t.astype(np.float64)
    assert np.all(np.abs(moved[0]) > 1e-3)
    for j, c in enumerate(lams):
        np.testing.assert_allclose(moved[j], c * moved[0], rtol=0,
                                   atol=np.spacing(np.float32(1.0)))


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_step_past_the_schedule_raises(kind):
    """A state is made for its task's number of steps; one more step
    raises, naming the schedule, and writes nothing."""
    t = table_of([[1.0, 1.0]])
    cfg = flat_cfg(kind=kind)
    state = new_state(t, cfg, total_steps=2)
    for _ in range(2):
        step(t, {0: np.array([1.0, 1.0])}, np.ones(1), cfg, state)
    after = t.copy()
    with pytest.raises(InvalidInputError, match="schedule"):
        step(t, {0: np.array([1.0, 1.0])}, np.ones(1), cfg, state)
    assert t.tobytes() == after.tobytes() and state.step_count == 2


def test_bias_table_matches_per_step_powers():
    """Over a task longer than its warmup, with rows first touched at
    different steps, the bias-correction table gives the matrix, m, v and
    t of the per-step Python powers of the row-by-row oracle, bit for bit."""
    rng = np.random.default_rng(12)
    rows, n_steps = 8, 30
    t = table_of(rng.normal(size=(rows, 3)))
    ref = t.copy()
    lam = np.array([1.0, 0.5, 1.0, 0.25, 1.0, 0.5, 1.0, 1.0])
    cfg = optim.OptimConfig(kind="adamw", lr_peak=0.3, weight_decay=0.05,
                            warmup_fraction=0.2)
    state = new_state(t, cfg, n_steps)
    ref_state = oracles.DictState(n_steps)
    for s in range(n_steps):
        # row j joins at step 3 j; the rows already in are touched at random
        live = np.arange(min(rows, s // 3 + 1))
        touched = live[rng.random(len(live)) < 0.6] if s % 3 else live
        grads = {int(j): rng.normal(size=3) for j in touched}
        step(t, grads, lam, cfg, state)
        oracles.step(ref, grads, lam, cfg, ref_state)
        assert t.tobytes() == ref.tobytes()
    assert state.t.tolist() == [ref_state.t[j] for j in range(rows)]
    for j in range(rows):
        assert state.m[j].tobytes() == ref_state.m[j].tobytes()
        assert state.v[j].tobytes() == ref_state.v[j].tobytes()
    assert len(set(state.t.tolist())) > 3  # the rows' t differ
    assert len(state.bias) > n_steps
