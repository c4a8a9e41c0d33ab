"""CPT optimal investment under proportional transaction costs.

Closed-form single-period solvers for continuous return laws (power utility)
and two-state laws (exponential utility), a Choquet-integral prospect
evaluator, and an independent brute-force oracle for verification.
"""

from .binomial import (
    BinomialInputs,
    LossAversionThresholds,
    Payoff2,
    PseudoProbabilities,
    candidate_applies,
    candidate_trade,
    lambda_bar,
    prepare_binomial_inputs,
    pseudo_probabilities,
    replicate,
    solve_binomial,
    solve_ray,
    zeta_thresholds,
)
from .choquet import GainLoss, ProspectDivergenceError, prospect_value
from .continuous import (
    PowerCaseInputs,
    interior_candidates,
    long_integrals,
    prepare_inputs,
    prepare_zero_initial_inputs,
    short_integrals,
    solve,
    solve_long,
    solve_short,
    solve_zero_initial,
)
from .distributions import ContinuousLaw, DiscreteLaw, constant_law
from .market import (
    ArbitrageCheck,
    Binomial,
    Empirical,
    Lognormal,
    MarketModel,
    Normal,
    Portfolio,
    StudentT,
    TradeDirection,
    check_no_arbitrage,
    excess_transform,
    reference_wealth,
    terminal_wealth,
)
from .oracle import (
    GridRangeError,
    GridSpec,
    OracleReport,
    evaluate_objective,
    grid_search,
    verify,
)
from .preferences import (
    CptPreference,
    ExponentialUtility,
    IdentityWeighting,
    PowerUtility,
    PrelecWeighting,
    TverskyKahnemanWeighting,
)
from .solution import Solution, SolutionKind

__version__ = "0.1.0"
