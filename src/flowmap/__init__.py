"""Constructive approximation of continuous maps by flow maps of switched ODEs.

The library builds piecewise-constant control schedules whose flow maps
approximate given targets: uniformly for increasing scalar functions, in
L^p for continuous maps in dimension two and up, with explicit time-budget
rates governed by the total variation of the log-derivative, and with a
forward-Euler bridge to discrete residual networks.
"""

from .core import (DEFAULT_CONFIG, BlowupError, FlowEvalError, IntegratorConfig,
                   JacobianRecord, Schedule, StepBudgetError, VectorField,
                   flow_eval, jacobian_sign_check, schedule_from_json,
                   schedule_to_json)
from .families import (AffineRestriction, OutsideSign, WellFunction,
                       apply_restriction, field_from_terms_1d, generic_field,
                       negated_field, relu_field, relu_well_1d, relu_well_nd,
                       sigmoid, sigmoid_smn, sigmoid_soft_threshold,
                       soft_threshold_well_1d)
from .splitting import average_flow_schedule
from .oned import (ApproxResult, MatchResult, NotIncreasingError,
                   PointMatchProblem, TransportError, approx_increasing,
                   match_points_result, transport_time)
from .rates import (GammaResult, LogDerivativeProfile, budgeted_schedule,
                    compile_heaviside_flow, compile_pwl_map, gamma_relaxed,
                    rate_sweep, translation_gadget, tv_log_derivative)
from .targets import (Target1D, TargetSpec, builtin_target_1d,
                      builtin_target_nd, parse_target, target_1d_from_csv,
                      target_nd_from_csv)
from .highd import (GridTarget, PipelineError, PipelineReport, ShrinkSpec,
                    approximate_lp, build_contraction, build_grid_target,
                    separate_points, transport_points)
from .terminal import CoveringError, TerminalMap, lift_targets
from .tensor import shear_parts, shear_schedule, tensor_field, tensor_transport
from .discretize import (ResNetExport, euler_discretize, export_from_json,
                         export_to_json, resnet_forward, truncation_slope)
from .util import MeasureResult, collision_counts, mc_lp_error
from .selftest import run_selftest

__version__ = "0.1.0"
