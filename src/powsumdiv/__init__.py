"""powsumdiv: exact counts, heuristics and limiting densities for the
primes dividing the sequence a^k + b^k."""

from .arith import log_integral, log_integrals
from .census import (
    CountAccumulator,
    Counts,
    InternalInconsistencyError,
    SweepPoint,
    SweepSeries,
    character_count,
    classify_prime,
    count_exact,
    formula_count,
    heuristic_counts,
    ramanujan_count,
    sweep,
    tail_sum,
)
from .cyclic import (
    CharacterTable,
    find_primitive_root,
    multiplicative_order,
    order_valuation_count,
    power_subgroup_size,
)
from .density import (
    cyclotomic_degree,
    delta_naive,
    delta_refined,
    delta_sign_difference,
    delta_table,
)
from .profile import (
    BaseProfile,
    DegenerateRatioError,
    InputRangeError,
    ZeroInputError,
    decompose,
)
from .ramanujan import divisor_indicator, ramanujan_c, ramanujan_c_2pow

__version__ = "0.1.0"
