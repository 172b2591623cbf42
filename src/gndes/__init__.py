"""Network design under (dis)economies of scale: cost-sharing games,
approximate best-response dynamics and their verification toolkit."""

from .bounds import (TheoreticalBounds, gamma_alpha, harmonic, smoothness_constants,
                     theoretical_bounds)
from .engine import (
    AbrdConfig,
    PassView,
    RunResult,
    StepRecord,
    TollRows,
    approximate_best_response,
    delta_vector,
    initial_profile,
    run_abrd,
    run_report,
    trace_to_csv,
)
from .errors import (
    ConfigError,
    EnumerationLimitError,
    GndesError,
    InfeasibleError,
    InstanceError,
    ParseError,
)
from .fpl import FplConfig, LApxResult, fpl_step, normalize_costs, run_l_apx
from .instance import (
    Edge,
    ExplicitReplies,
    ExponentProfile,
    Feasibility,
    HostGraph,
    Instance,
    MachineChoice,
    MultiRouting,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
    StrategyProfile,
    load_vector,
    rep_cost,
    total_cost,
    validate_reply,
)
from .io import instance_to_text, parse_instance, parse_instance_text, write_instance
from .oracles import (
    OracleAnswer,
    explicit_oracle,
    machine_oracle,
    oracle_rho,
    reply_oracle,
    routing_oracle,
    steiner_forest_oracle,
    steiner_tree_oracle,
)
from .sharing import (
    RepExpansionConstants,
    ShareQuery,
    cost_share,
    h_value,
    proportional_share,
    rep_expansion_check,
    rep_expansion_constants,
    shapley_exact,
    shapley_sampled,
)
from .analysis import (
    PoaReport,
    ProfileState,
    SmoothnessReport,
    brute_force_opt,
    budget_balance_check,
    candidate_replies,
    enumerate_nash,
    nash_report_csv,
    poa_lower_bound_instance,
    potential,
    potential_bounds_check,
    potential_by_prefix,
    potential_exactness_check,
    smoothness_check,
    smoothness_report_csv,
)

__version__ = "0.1.0"
