"""relcost: a discrete-time simulator and decision-theoretic cost analyzer
for reliable message delivery over an unreliable link."""

from .analysis import (DivergenceReport, EstimateReport, ImpossibilityReport,
                       LambdaEstimate, OptimizeResult, c1_growth_probe,
                       closed_form_for, divergence_probe, estimate,
                       estimate_lambda, heartbeat_expected_sends,
                       heartbeat_expected_wait, impossibility_probe,
                       invocation_cost_z, optimize_delta, repeated_avg_cost,
                       s2_curve, sender_expected_sends, sender_expected_wait,
                       receiver_expected_sends, receiver_expected_wait,
                       trivial_expected_wait)
from .cost import (CostBreakdown, avg_cost_series, breakdown, cost_c0, cost_c1,
                   num_sends, t_wait)
from .engine import (MessageRecord, RepeatedTrace, RunTrace, audit_trace,
                     run_repeated, run_single, sample_lifetimes,
                     serialize_trace)
from .model import (CostParams, ProtocolSpec, SystemParams,
                    combined_crash_rate, validate)

__version__ = "0.1.0"
