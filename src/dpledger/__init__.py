"""Permissioned ledger simulator with a differentially private query interface.

The library answers COUNT/SUM queries over channel-scoped ledger data
under an epsilon budget, reuses budget for repeated queries, tracks
cumulative spending against a provider threshold, and ships attack
harnesses that measure linking and composition resistance.
"""

from .errors import (
    BudgetExhausted,
    ConfigInvalid,
    DPLedgerError,
    EmptyBatch,
    EmptyHistogram,
    IncompatibleBinning,
    InvalidQuantity,
    MissingField,
    NoCommonQueries,
    NonPositiveEpsilon,
    NonPositiveSensitivity,
    NotAuthorized,
    NotMember,
    PredicateMismatch,
    UnsupportedAggregate,
    ZeroActual,
    ZeroQueries,
)
from .transactions import (
    Aggregate,
    CategoryKey,
    Endorsement,
    Envelope,
    PerturbedResponse,
    QueryEffect,
    QueryRecord,
    QueryTransaction,
    WriteTransaction,
    normalize,
    validate_query,
    validate_write,
)
from .laplace import (
    EPSILON_MIN,
    Histogram,
    LaplaceParams,
    build_histogram,
    empirical_dp_ratio,
    laplace_sample,
    laplace_samples,
    laplace_scale,
    perturb,
    sensitivity,
)
from .budget import (
    BudgetAccountant,
    SpendRecord,
    allocate_equal,
)
from .ledger import (
    Block,
    ChannelConfig,
    WorldState,
    build_block,
    export_blocks,
    export_transactions,
    import_transactions,
    make_genesis,
    policy_problems,
    replay_chain,
    verify_chain,
)
from .chaincode import ChaincodeEngine, evaluate_exact
from .network import (
    Network,
    Peer,
    ReceiptStatus,
    SoloOrderer,
    TransactionReceipt,
)
from .adversary import (
    AttackReport,
    BackgroundKnowledge,
    composition_attack,
    linking_attack,
    repeated_query_averaging,
)
from .bench import (
    EpsilonSchedule,
    WorkloadConfig,
    export_report,
    generate_workload,
    relative_error,
    run_scenario,
    scenario_config,
    sweep,
)

__version__ = "0.1.0"
