"""Online trajectory simulator.

Projected gradient ascent over time-varying utilities with per-slot step
sizes that keep every move feasible, plus offline benchmarks, a brute-force
oracle, scalar regret metrics, and reproducible CSV trace emission.
"""

from .engine import (
    EngineState,
    NoiseModel,
    StepRecord,
    ioga_step,
    run_episode,
)
from .field import (
    AwayFromGoalSpec,
    FieldPerturbation,
    GyreSpec,
    UniformSpec,
    VelocityField,
    load_field,
    perturb_field,
    sample_velocity,
    synth_field,
)
from .metrics import (
    GradientVariation,
    OfflineProblem,
    OracleGrid,
    RegretReport,
    build_regret_report,
    cumulative_error,
    dp_oracle,
    energy_cost,
    gradient_variation,
    solve_offline,
    solve_offline_batch,
    squared_path_length,
    straight_line_trajectory,
)
from .objectives import (
    CommuteUtilities,
    VoyageUtilities,
    d2d_gradient,
    d2d_step_size,
    lambda_increasing,
    leading_path,
    ocean_gradient,
    ocean_step_size,
    rate,
    voyage_weights,
)
from .scenarios import (
    AdversaryParams,
    EpisodeReport,
    PathSpec,
    ScenarioConfig,
    SweepRow,
    run_adversary,
    run_scenario,
    sweep,
)
from .sets import Box2D
from .config import RunManifest, config_hash, parse_config
from .traces import emit_summary, emit_trace, read_summary, read_trace

__version__ = "0.1.0"
