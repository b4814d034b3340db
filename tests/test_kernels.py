import json
import subprocess
import sys

import numpy as np
import pytest

from relcost import kernels
from relcost.model import CostParams, SystemParams


def test_derive_run_seed_is_deterministic_and_spread():
    a = kernels.derive_run_seed(1, 0)
    assert a == kernels.derive_run_seed(1, 0)
    seeds = {kernels.derive_run_seed(1, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_make_seeds_equals_the_scalar_derivation():
    for master in (0, 5, 2 ** 64 - 1):
        for start, count in ((0, 70), (3, 5), (2 ** 40 + 11, 9), (7, 0)):
            seeds = kernels.make_seeds(master, start, count)
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == [kernels.derive_run_seed(master, start + i)
                                      for i in range(count)]


def test_unit_draws_in_range():
    state = kernels.seed_state(7)
    for _ in range(1000):
        state, u = kernels.next_unit(state)
        assert 0.0 <= u < 1.0


def test_lifetime_sampler_edges():
    state = kernels.seed_state(3)
    _, t = kernels.sample_lifetime(state, 1.0, 0.5)
    assert t == -1  # correct process never crashes
    _, t = kernels.sample_lifetime(state, 0.0, 1.0)
    assert t == 0


def test_single_batch_repeatable_with_shared_workspace():
    # a second call over the same seeds must reproduce the first exactly:
    # nothing of one batch carries over into the next
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.05, beta_q=0.05,
                     gamma=0.4, tau=3, delta=2)
    seeds = kernels.make_seeds(11, 0, 200)
    a = kernels.single_batch(4, p, 300, seeds, ack_base=1.8)
    b = kernels.single_batch(4, p, 300, seeds, ack_base=1.8)
    for k in a:
        assert np.array_equal(a[k], b[k]), k


def test_hb_sends_upto_matches_enumeration():
    for t_x in (0, 1, 5, 17, 1000):
        for delta in (1, 2, 3, 7):
            for t in (-1, 0, 3, 9, 40):
                horizon = 30
                expected = sum(1 for k in range(0, horizon, delta)
                               if k < t_x and k <= t)
                got = kernels.hb_sends_upto(t, t_x, delta, horizon)
                assert got == expected, (t, t_x, delta)


_BATCH_PROBE = r"""
import json
from relcost.model import SystemParams, CostParams
from relcost import kernels

p = SystemParams(alpha_p=0.3, alpha_q=0.0, beta_p=0.02, beta_q=0.05,
                 gamma=0.25, tau=3, delta=2, sigma=0.08)
c = CostParams(1.5, 0.5)
seeds = kernels.make_seeds(4242, 0, 48)
out = {}
for code, name in ((1, "sender"), (3, "srhb"), (4, "path")):
    arr = kernels.single_batch(code, p, 400, seeds, ack_base=1.7)
    out[name] = {k: v.tolist() for k, v in arr.items()}
rep = kernels.repeated_batch(p, c, 400, seeds)
out["rep"] = {k: v.tolist() for k, v in rep.items()}
print(json.dumps(out, sort_keys=True))
"""


def test_kernel_entry_points_reject_empty_horizons():
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.05, beta_q=0.05,
                     gamma=0.1, tau=2, delta=2, sigma=0.1)
    seeds = kernels.make_seeds(1, 0, 4)
    for horizon in (0, -5):
        with pytest.raises(ValueError, match="horizon"):
            kernels.single_batch(1, p, horizon, seeds)
        with pytest.raises(ValueError, match="horizon"):
            kernels.repeated_batch(p, CostParams(1.0, 1.0), horizon, seeds)
        with pytest.raises(ValueError, match="horizon"):
            kernels.repeated_run_arrays(p, horizon, 3)


@pytest.mark.slow
def test_fresh_processes_give_identical_batches():
    """Two fresh processes give bit-identical single and repeated batches
    from the same seeds: no state outside the seed leaks into a run."""
    first, second = (json.loads(subprocess.run(
        [sys.executable, "-c", _BATCH_PROBE], check=True, capture_output=True,
        text=True).stdout) for _ in range(2))
    assert first == second
