"""Rate regions and outer bounds for the half-duplex cooperative two-user
Gaussian interference channel: transmitter-cooperation (decode-and-forward
plus dirty-paper broadcast) and receiver-cooperation (Wyner-Ziv
compress-and-forward) achievable schemes, their infinite-conferencing
limits, cut-set/broadcast/multiple-access outer bounds, the
non-cooperative interference channel's outer bound and achievable region
(the baseline for every channel), the parallel-DPC baseline, and a
deterministic Pareto-frontier tracer."""

from .model import (
    ChannelGains,
    EvaluatorError,
    InvalidAllocation,
    PowerBudget,
    RatePair,
    RcAllocation,
    Simplex2,
    Simplex3,
    TcAllocation,
    cap,
)
from .txcoop import (
    TcCovariances,
    TcPhaseRates,
    rdpc_rate_pair,
    tc_limit_rate_pair,
    tc_phase3_covariances,
    tc_phase_rates,
    tc_rate_pair,
)
from .rxcoop import (
    RcPhaseRates,
    rc_limit_rate_pair,
    rc_phase_rates,
    rc_rate_pair,
)
from .bounds import (
    OuterBound,
    bc_region_vertices,
    ic_outer_region,
    mimo_bc_sum_bound,
    mimo_mac_sum_bound,
    rc_outer_region,
    relay_cutset_bound,
    strong_ic_region,
    tc_outer_region,
)
from .frontier import (
    Frontier,
    FrontierPoint,
    TraceOptions,
    default_weights,
    dominates,
    equal_rate_value,
    hausdorff,
    hull,
    region_deviation,
    trace,
    trace_many,
)

__version__ = "0.1.0"
