"""Network-coding based secure storage (NCSS).

Digit streams are regrouped into GF(2^k) elements at widths that avoid the
overflow problem, encoded with a Vandermonde matrix, and distributed across
simulated cloud databases under a per-cloud guess-probability budget, with
optional local retention up to perfect secrecy. A separate optimizer picks
the matrix size and retention that minimize storage cost.
"""

from .adversary import (
    ALL_CLOUDS,
    AttackScenario,
    DigitSelection,
    EntropyReport,
    entropy_audit,
    rank_audit,
    scenario_from_plan,
    scenario_from_storage,
    simulate_guess,
)
from .bench import BenchResult, bench_csv, bench_mul, bench_pipeline
from .codec import (
    ALPHA_BOUNDED,
    STRICT,
    CodedStream,
    DigitString,
    GroupingPlan,
    OverflowReport,
    classify_overflow,
    decode_block,
    digit_length,
    encode_block,
    encode_stream,
    make_grouping_plan,
    min_width_alpha,
    regroup,
    strict_width,
    ungroup,
)
from .errors import (
    ConfigError,
    InfeasibleError,
    NcssError,
    PipelineError,
)
from .gf import (
    EncodingMatrix,
    Field,
    FieldSpec,
    build_vandermonde,
    default_points,
    get_field,
)
from .optimizer import (
    CostProblem,
    CostSolution,
    brute_force_cost,
    hessian_spectrum,
    local_retention_min,
    solve_cost,
    sweep,
    sweep_csv,
)
from .pipeline import (
    StoreResult,
    bytes_to_digits,
    digits_to_bytes,
    load_manifest,
    recover,
    store_digits,
)
from .planner import (
    DistributionPlan,
    SecurityProfile,
    guess_probability,
    make_plan,
    per_cloud_caps,
    perfect_secrecy_split,
)
from .storage import (
    DirectoryRoot,
    Manifest,
    MemoryRoot,
    Payload,
    crc32c,
    fetch_shards,
    reconstruct,
    store_shards,
)

__version__ = "0.1.0"
