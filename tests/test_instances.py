import numpy as np
import pytest

from stickygas.errors import EventMarginExhausted, NumericError
from stickygas.instances import random_instance, sample_times_avoiding_events
from stickygas.oracle import simulate_drift, simulate_ep


def reference_sample_times(rng, n, t_lo, t_hi, event_times):
    """The array form of the margin test: each draw's distance to every
    event at once."""
    events = np.asarray(sorted(event_times), dtype=float)
    out = []
    for _ in range(n):
        for _ in range(100):
            t = float(rng.uniform(t_lo, t_hi))
            if events.size == 0 or np.min(np.abs(events - t)) > 1e-3 * (1.0 + t):
                break
        else:
            raise EventMarginExhausted("no draw cleared the margin")
        out.append(t)
    return out


def assert_same_draws(event_times, n, t_lo, t_hi, seed):
    """Equal times, and the generator left in the same state."""
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_times_avoiding_events(rngs[0], n, t_lo, t_hi, event_times)
    assert repr(got) == repr(reference_sample_times(rngs[1], n, t_lo, t_hi, event_times))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    return got


class TestSampleTimesAvoidingEvents:
    def test_seeded_trajectories(self):
        rng = np.random.default_rng(20260810)
        for i in range(200):
            data = random_instance(rng, n_max=20)
            traj = simulate_ep(data, 6.0) if i % 2 else simulate_drift(data.measure, 6.0)
            assert_same_draws(traj.event_times, 5, 0.1, 5.5, i)

    def test_no_events(self):
        assert len(assert_same_draws([], 7, 0.1, 5.5, 3)) == 7
        assert assert_same_draws((), 0, 0.1, 5.5, 3) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_and_unsorted_events(self, seed):
        # events closer than the margin everywhere: the 100 draws of the first
        # time are spent and both forms raise; and a draw at an event's margin
        # edge or on an event
        rng = np.random.default_rng(seed)
        dense = rng.permutation(np.linspace(0.0, 6.0, 4001)).tolist()
        with pytest.raises(EventMarginExhausted):
            assert_same_draws(dense, 5, 0.1, 5.5, seed)
        with pytest.raises(EventMarginExhausted):
            reference_sample_times(np.random.default_rng(seed), 5, 0.1, 5.5, dense)
        edges = [1.0, 1.0 + 1e-3 * 2.0, 3.0, 3.0, 2.0]
        assert_same_draws(edges + [e + 1e-3 * (1.0 + e) for e in edges], 20, 0.9, 3.1, seed)

    def test_no_time_inside_the_margin_is_returned(self):
        # 4,001 events 0.0015 apart on [0, 6]: every point lies within 7.5e-4
        # of one, inside the 1e-3*(1 + t) margin, so no draw can clear it
        rng = np.random.default_rng(0)
        with pytest.raises(EventMarginExhausted, match="100 draws on \\[0.1, 5.5\\]"):
            sample_times_avoiding_events(rng, 5, 0.1, 5.5, np.linspace(0.0, 6.0, 4001))
        used = np.random.default_rng(0)
        used.uniform(0.1, 5.5, size=100)
        assert rng.bit_generator.state == used.bit_generator.state
        assert issubclass(EventMarginExhausted, NumericError)  # exit 3 in the CLI
