import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytemot.kalman import KalmanFilter, MotionState
from oracles import RefKalmanFilter, RefMotionState, cov_blocks, full_cov

REF = RefKalmanFilter()


@pytest.fixture
def kf():
    return KalmanFilter()


def stack(states):
    return MotionState(np.stack([s.mean for s in states]), np.stack([s.cov for s in states]))


def ref_state(state):
    return RefMotionState(state.mean, full_cov(state.cov))


def random_ops_sequence(kf, rng, n_ops):
    """Apply a random mix of predicts and updates, returning every state."""
    m = rng.uniform([0, 0, 0.3, 10], [800, 600, 2.5, 120])
    state = kf.initiate(m)
    states = [state]
    for _ in range(n_ops):
        if rng.random() < 0.5:
            state = kf.predict(state)
        else:
            z = m + rng.normal(0, 1, 4) * [2, 2, 0.02, 2]
            z[3] = max(z[3], 1.0)
            state = kf.update(state, z)
        states.append(state)
    return states


class TestInitiate:
    def test_mean_copies_measurement_with_zero_velocity(self, kf):
        s = kf.initiate([10, 20, 0.5, 40])
        assert s.mean.tolist() == [10, 20, 0.5, 40, 0, 0, 0, 0]

    def test_example(self, kf):
        s = kf.initiate([7, 8, 1.0, 8])
        assert s.mean[:4].tolist() == [7, 8, 1.0, 8]

    def test_covariance_spd(self, kf):
        cov = full_cov(kf.initiate([100, 50, 0.8, 60]).cov)
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_velocity_inflation_exceeds_position_inflation(self, kf):
        # relative to the base weights, velocity uncertainty starts larger
        # (x10) than position uncertainty (x2)
        h = 60.0
        cov = full_cov(kf.initiate([100, 50, 0.8, h]).cov)
        pos_rel = cov[0, 0] / (kf.pos_weight * h) ** 2
        vel_rel = cov[4, 4] / (kf.vel_weight * h) ** 2
        assert vel_rel > pos_rel
        assert pos_rel == pytest.approx(4.0)
        assert vel_rel == pytest.approx(100.0)

    def test_rejects_non_positive_height(self, kf):
        with pytest.raises(ValueError):
            kf.initiate([1, 2, 0.5, 0.0])


class TestPredict:
    def test_position_moves_by_velocity(self, kf):
        s = MotionState([10, 20, 0.5, 40, 1, 2, 0, 0], kf.initiate([10, 20, 0.5, 40]).cov)
        out = kf.predict(s)
        assert out.mean[:4].tolist() == [11, 22, 0.5, 40]
        assert out.mean[4:].tolist() == [1, 2, 0, 0]

    def test_zero_velocity_keeps_position(self, kf):
        s = kf.initiate([10, 20, 0.5, 40])
        assert kf.predict(s).mean[:4].tolist() == [10, 20, 0.5, 40]

    def test_diagonal_never_below_propagated_cov(self, kf):
        s = kf.initiate([100, 100, 1.0, 50])
        f = REF._motion
        for _ in range(5):
            propagated = f @ full_cov(s.cov) @ f.T
            s = kf.predict(s)
            assert np.all(np.diag(full_cov(s.cov)) >= np.diag(propagated))

    def test_repeated_predict_matches_closed_form(self, kf):
        # zero velocity keeps h constant, so the process noise Q is constant
        # and cov_k = F^k cov0 F^k' + sum_i F^i Q F^i'
        m = np.array([100.0, 100.0, 1.0, 50.0])
        s0 = kf.initiate(m)
        f = REF._motion
        h = m[3]
        q_std = np.array(
            [kf.pos_weight * h] * 2 + [kf.aspect_pos_std] + [kf.pos_weight * h]
            + [kf.vel_weight * h] * 2 + [kf.aspect_vel_std] + [kf.vel_weight * h]
        )
        q = np.diag(q_std**2)
        for k in (1, 3, 7):
            s = s0
            for _ in range(k):
                s = kf.predict(s)
            fk = np.linalg.matrix_power(f, k)
            expected = fk @ full_cov(s0.cov) @ fk.T
            for i in range(k):
                fi = np.linalg.matrix_power(f, i)
                expected += fi @ q @ fi.T
            assert np.allclose(full_cov(s.cov), expected, atol=1e-9)
            assert np.allclose(s.mean[:2], m[:2])

    def test_position_variance_grows_monotonically(self, kf):
        s = kf.initiate([100, 100, 1.0, 50])
        prev = full_cov(s.cov)[0, 0]
        for _ in range(10):
            s = kf.predict(s)
            assert full_cov(s.cov)[0, 0] > prev
            prev = full_cov(s.cov)[0, 0]


class TestUpdate:
    def test_zero_innovation_keeps_mean(self, kf):
        s = kf.initiate([10, 20, 0.5, 40])
        s = kf.predict(s)
        out = kf.update(s, s.mean[:4])
        assert np.allclose(out.mean, s.mean, atol=1e-12)

    def test_trace_strictly_decreases(self, kf):
        rng = np.random.default_rng(7)
        s = kf.initiate([50, 60, 1.2, 30])
        for _ in range(10):
            s = kf.predict(s)
            z = s.mean[:4] + rng.normal(0, 0.5, 4)
            z[3] = max(z[3], 1.0)
            updated = kf.update(s, z)
            assert np.trace(full_cov(updated.cov)) < np.trace(full_cov(s.cov))
            s = updated

    def test_repeated_update_converges_to_measurement(self, kf):
        # scalar fixed-point recursion: with diagonal noise the cx component
        # evolves independently as x += P/(P+R) (z - x), P' = P R/(P+R)
        h = 40.0
        start = np.array([10.0, 20.0, 0.5, h])
        z = start + np.array([0.15, -0.15, 0.0, 0.0])
        s = kf.initiate(start)
        x = start[0]
        p = (2 * kf.pos_weight * h) ** 2
        r = (kf.pos_weight * h) ** 2
        for _ in range(50):
            s = kf.update(s, z)
            gain = p / (p + r)
            x = x + gain * (z[0] - x)
            p = p - gain * p
        assert s.mean[0] == pytest.approx(x, abs=1e-9)
        assert full_cov(s.cov)[0, 0] == pytest.approx(p, abs=1e-9)
        assert abs(s.mean[0] - z[0]) < 1e-3
        assert abs(s.mean[1] - z[1]) < 1e-3


class TestInvariants:
    def test_symmetry_preserved_across_random_sequences(self):
        # the library's per-axis blocks are symmetric by construction; the
        # 8x8 reference filter is where symmetry can fail
        rng = np.random.default_rng(99)
        for _ in range(200):
            for s in random_ops_sequence(REF, rng, 12):
                assert np.array_equal(s.cov, s.cov.T)
                assert np.all(np.linalg.eigvalsh(s.cov) > 0.0)

    def test_blocks_positive_definite_across_random_sequences(self, kf):
        rng = np.random.default_rng(99)
        blocks = np.stack([s.cov for _ in range(200) for s in random_ops_sequence(kf, rng, 12)])
        p_xx, p_xv, p_vv = blocks.swapaxes(0, 1)
        assert np.all(p_xx > 0.0) and np.all(p_vv > 0.0)
        assert np.all(p_xv * p_xv <= p_xx * p_vv * (1.0 + 1e-9))

    def test_tracks_constant_velocity_motion(self, kf):
        # one-step-ahead prediction error under noiseless linear motion
        vx, vy = 3.0, 2.0
        w, h = 30.0, 60.0
        errors = {}
        state = kf.initiate([100.0, 100.0, w / h, h])
        for frame in range(2, 21):
            true_cx = 100.0 + vx * (frame - 1)
            true_cy = 100.0 + vy * (frame - 1)
            state = kf.predict(state)
            errors[frame] = float(np.hypot(state.mean[0] - true_cx, state.mean[1] - true_cy))
            state = kf.update(state, [true_cx, true_cy, w / h, h])
        for frame in range(10, 21):
            assert errors[frame] < 0.5

    def test_height_stays_positive_under_valid_measurements(self, kf):
        rng = np.random.default_rng(101)
        for _ in range(50):
            for s in random_ops_sequence(kf, rng, 15):
                assert s.mean[3] > 0

    def test_determinism_bitwise(self, kf):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            states = random_ops_sequence(kf, rng, 20)
            runs.append((states[-1].mean.tobytes(), states[-1].cov.tobytes()))
        assert runs[0] == runs[1]

    def test_operations_leave_inputs_untouched(self, kf):
        rng = np.random.default_rng(8)
        states = stack([random_ops_sequence(kf, rng, 4)[-1] for _ in range(5)])
        zs = states.mean[:, :4] + 1.0
        before = (states.mean.tobytes(), states.cov.tobytes(), zs.tobytes())
        kf.predict_many(states)
        kf.update_many(states, zs)
        kf.initiate(zs)
        assert (states.mean.tobytes(), states.cov.tobytes(), zs.tobytes()) == before

    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_results_are_fresh_float64_of_the_documented_shapes(self, kf, batch, dtype):
        # no result shares memory with the state or measurements it came
        # from, whatever the input's dtype, in batch and single form
        rng = np.random.default_rng(10)
        m = np.rint(rng.uniform([0, 0, 1, 10], [800, 600, 3, 120], (5, 4))).astype(dtype)
        if not batch:
            m = m[0]
        lead = m.shape[:-1]
        state = kf.initiate(m)
        results = [(state, [m])]
        predicted = kf.predict_many(state)
        results.append((predicted, [state.mean, state.cov]))
        zs = predicted.mean[..., :4] + 1.0
        results.append((kf.update_many(predicted, zs), [predicted.mean, predicted.cov, zs]))
        for result, inputs in results:
            assert result.mean.dtype == result.cov.dtype == np.float64
            assert result.mean.shape == lead + (8,) and result.cov.shape == lead + (3, 4)
            assert not np.shares_memory(result.mean, result.cov)
            for array in inputs:
                assert not np.shares_memory(result.mean, array)
                assert not np.shares_memory(result.cov, array)

    def test_state_holds_its_arrays(self):
        mean, cov = np.zeros((3, 8)), np.zeros((3, 3, 4))
        state = MotionState(mean, cov)
        assert state.mean is mean and state.cov is cov
        assert len(state) == 3
        assert state[[2, 0]].mean.shape == (2, 8)
        with pytest.raises(TypeError):
            len(MotionState(mean[0], cov[0]))
        with pytest.raises(ValueError):
            MotionState(mean, cov[:, :2])
        with pytest.raises(ValueError):
            MotionState(mean, np.zeros((3, 8, 8)))


class TestBatchedForms:
    """The batched per-axis operations against the per-state 8x8 filter they
    replaced (tests/oracles.py), byte for byte: the blocks equal the
    reference's entries at the block positions, and cov_blocks asserts that
    every other reference entry is exactly 0.0."""

    def test_predict_many_matches_predict(self, kf):
        rng = np.random.default_rng(5)
        states = [random_ops_sequence(kf, rng, 4)[-1] for _ in range(17)]
        batch = kf.predict_many(stack(states))
        assert len(batch) == 17
        for i, state in enumerate(states):
            want = REF.predict(ref_state(state))
            assert batch.mean[i].tobytes() == want.mean.tobytes()
            assert batch.cov[i].tobytes() == cov_blocks(want.cov).tobytes()

    def test_update_many_matches_update(self, kf):
        rng = np.random.default_rng(6)
        states = [random_ops_sequence(kf, rng, 4)[-1] for _ in range(17)]
        zs = [s.mean[:4] + rng.normal(0, 1, 4) * [2, 2, 0.02, 2] for s in states]
        batch = kf.update_many(stack(states), zs)
        assert len(batch) == 17
        for i, (state, z) in enumerate(zip(states, zs)):
            want = REF.update(ref_state(state), z)
            assert batch.mean[i].tobytes() == want.mean.tobytes()
            assert batch.cov[i].tobytes() == cov_blocks(want.cov).tobytes()

    def test_initiate_batch_matches_initiate(self, kf):
        ms = np.random.default_rng(9).uniform([0, 0, 0.3, 10], [800, 600, 2.5, 120], (6, 4))
        batch = kf.initiate(ms)
        assert len(batch) == 6
        for i, m in enumerate(ms):
            want = REF.initiate(m)
            assert batch.mean[i].tobytes() == want.mean.tobytes()
            assert batch.cov[i].tobytes() == cov_blocks(want.cov).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-500, 1500), st.floats(-500, 1500),
                st.floats(0.1, 4.0), st.floats(1.0, 400.0),
            ),
            min_size=1, max_size=12,
        ),
        st.lists(st.tuples(st.booleans(), st.integers(0, 2**32 - 1)), max_size=8),
    )
    def test_random_sequences_match_reference(self, boxes, ops):
        # every row of the batch follows the per-state filter bit for bit,
        # single states too, whatever mix of predicts and updates
        kf = KalmanFilter()
        batch = kf.initiate(boxes)
        refs = [REF.initiate(b) for b in boxes]
        for is_update, seed in ops:
            if is_update:
                zs = batch.mean[:, :4] + np.random.default_rng(seed).normal(0, 2, (len(boxes), 4))
                zs[:, 3] = np.abs(zs[:, 3]) + 1.0
                batch = kf.update_many(batch, zs)
                refs = [REF.update(r, z) for r, z in zip(refs, zs)]
                single = kf.update(kf.initiate(boxes[0]), zs[0])
                want = REF.update(REF.initiate(boxes[0]), zs[0])
            else:
                batch = kf.predict_many(batch)
                refs = [REF.predict(r) for r in refs]
                single = kf.predict(kf.initiate(boxes[0]))
                want = REF.predict(REF.initiate(boxes[0]))
            assert batch.mean.tobytes() == np.stack([r.mean for r in refs]).tobytes()
            assert batch.cov.tobytes() == cov_blocks(np.stack([r.cov for r in refs])).tobytes()
            assert single.mean.tobytes() == want.mean.tobytes()
            assert single.cov.tobytes() == cov_blocks(want.cov).tobytes()

    def test_block_helpers_round_trip_and_reject_coupled_entries(self, kf):
        ms = np.random.default_rng(3).uniform([0, 0, 0.3, 10], [800, 600, 2.5, 120], (4, 4))
        blocks = kf.predict_many(kf.initiate(ms)).cov
        assert cov_blocks(full_cov(blocks)).tobytes() == blocks.tobytes()
        coupled = full_cov(blocks)
        coupled[:, 0, 1] = coupled[:, 1, 0] = 1e-300
        with pytest.raises(AssertionError):
            cov_blocks(coupled)

    def test_empty_batches(self, kf):
        empty = MotionState(np.empty((0, 8)), np.empty((0, 3, 4)))
        assert len(kf.predict_many(empty)) == 0
        assert len(kf.update_many(empty, np.empty((0, 4)))) == 0
        assert len(kf.initiate(np.empty((0, 4)))) == 0
