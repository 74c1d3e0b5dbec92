"""fairlot: exact fair random assignment.

Computes simultaneous-eating fractional allocations over exact rationals
and implements them as explicit lotteries over deterministic allocations
that are envy-free up to one item, together with verifiers for the
fairness and efficiency notions involved and brute-force/LP reference
oracles at desk scale.
"""

from .birkhoff import birkhoff_decompose, is_bistochastic
from .eps import EatingNetwork, eps_outcome, globally_unwanted, max_eating_duration
from .fairness import (
    BudgetExceeded,
    Report,
    check_ef,
    check_ef1,
    check_efk,
    check_po_bruteforce,
    check_rb,
    check_sd_ef,
    check_sd_ef1,
    check_sd_efficient,
    check_strong_ef1,
)
from .model import (
    DeterministicAllocation,
    EatingTrace,
    Instance,
    Lottery,
    OrdinalProfile,
    RandomAllocation,
    Rational,
    SdRelation,
    TraceSegment,
    expected_allocation,
    format_rational,
    ordinal_from_utilities,
    rational,
    sd_compare,
    utility_of_bundle,
)
from .oracle import (
    InfeasibilityCertificate,
    enumerate_allocations,
    implementable_by,
    leximin_bruteforce,
    pareto_improvement_exists,
    sd_improvement_exists,
)
from .ps import ps_outcome
from .pslottery import (
    PaddedInstance,
    Plan,
    implement,
    pad_with_dummies,
    plan,
    project,
    ps_lottery,
    re_eat,
    reduce_support,
    support_bound,
)

__version__ = "0.1.0"
