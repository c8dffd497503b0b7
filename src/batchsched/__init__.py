"""Scheduling n jobs of c classes on m identical machines with batch setup
times: splittable, preemptive and non-preemptive variants, with linear-time
2-approximations, 3/2-dual decision procedures, (3/2+eps) bisection, exact
3/2 jump searches, a feasibility verifier and certified lower bounds."""

from .core import (
    ContractError,
    Decision,
    Instance,
    JobClass,
    Rat,
    Schedule,
    ValidationError,
    Variant,
    VerifyReport,
    Violation,
    emit_instance,
    lower_bound_tmin,
    parse_instance,
    verify_schedule,
)
from .nonpreemptive import dual_nonp, exact_integer_search_nonp, next_fit_two_approx
from .preemptive import class_jump_pmtn, continuous_knapsack, dual_pmtn
from .search import Rejected, SearchResult, certified_report, epsilon_search, solve
from .splittable import class_jump_split, dual_split, two_approx_split

__version__ = "0.1.0"
