"""Validated input never raises anything but an EvaluatorError.

Gains and powers are drawn log-uniformly over most of the validated range,
where large nearly parallel gain vectors used to cancel a 2x2 determinant
to zero or below.
"""

import numpy as np

from coopic import bounds, rxcoop, txcoop
from coopic.model import (
    ChannelGains,
    EvaluatorError,
    PowerBudget,
    RcAllocation,
    Simplex2,
    Simplex3,
    TcAllocation,
)

DRAWS = 2000

U2 = Simplex2(0.5, 0.5)
U3 = Simplex3(1 / 3, 1 / 3, 1 / 3)
TC_UNIFORM = TcAllocation(lam=U3, kappa=U2, gamma=U2, alpha=U2, beta=U2, mu=U3, eta=U3)
RC_UNIFORM = RcAllocation(lam=U3, mu=U3, eta=U3, alpha=U2, beta=U2)


def log_uniform_channels(seed: int, n: int):
    """n (gains, powers): gains in 1e-3..1e8, powers in 0.1..1e4."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield ChannelGains(*10.0 ** rng.uniform(-3.0, 8.0, size=6)), \
            PowerBudget(*10.0 ** rng.uniform(-1.0, 4.0, size=4))


def test_validated_channels_raise_only_evaluator_errors():
    failures = []
    for g, p in log_uniform_channels(7, DRAWS):
        # the sum bounds are defined for every channel: nothing may raise
        try:
            bounds.mimo_bc_sum_bound(g, p.p1 + p.p2)
            bounds.mimo_mac_sum_bound(g, p)
        except Exception as exc:  # noqa: BLE001 -- any exception is a failure here
            failures.append((g, p, "bounds", repr(exc)))
        for name, rate_pair, alloc in (("TC", txcoop.tc_rate_pair, TC_UNIFORM),
                                       ("RDPC", txcoop.rdpc_rate_pair, TC_UNIFORM),
                                       ("RC", rxcoop.rc_rate_pair, RC_UNIFORM)):
            try:
                rate_pair(g, p, alloc)
            except EvaluatorError:
                pass
            except Exception as exc:  # noqa: BLE001
                failures.append((g, p, name, repr(exc)))
    assert not failures, f"{len(failures)} failures, first: {failures[0]}"
