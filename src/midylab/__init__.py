"""midylab: block-sum periodicity of radix expansions.

Decides, for a base b and modulus N coprime to it, which block counts d
make every period of x/N sum to a multiple of b**k - 1 when cut into d
blocks of k digits; cross-validates the structural deciders against a
digit-level oracle; and constructs unbounded progressions of primes
congruent to 1 modulo a prime power.
"""

from .arith import (
    Factorization,
    factor,
    gcd_pow_minus_one,
    is_prime,
    is_prime_proven,
    valuation,
)
from .errors import (
    BoundedSearchError,
    DomainError,
    HypothesisNotApplicableError,
    MidylabError,
    PreconditionError,
)
from .expansion import (
    BlockDecomposition,
    PeriodExpansion,
    blocks_and_sum,
    period_digits,
    smallest_failing_x,
)
from .jenkins import (
    JenkinsDecomposition,
    JenkinsInstance,
    jenkins_check,
    jenkins_check_gcd,
    jenkins_decomposition,
    jenkins_instance,
)
from .midy import (
    GcdCertificate,
    MidySet,
    MidyVerdict,
    OracleCertificate,
    PrimeCertificate,
    guel_triple,
    midy_check_direct,
    midy_check_ppl2,
    midy_check_ppl3,
    midy_set,
)
from .order import (
    ModulusProfile,
    lift_valuation,
    modulus_profile,
    order_mod,
    order_mod_naive,
)
from .progression import (
    DEFAULT_SEARCH_BOUND,
    PrimePowerStructure,
    ProgressionTrace,
    midy_prime_v1_check,
    prime_power_midy_structure,
    prime_power_structure,
    prime_progression,
    smallest_midy_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "BoundedSearchError",
    "DEFAULT_SEARCH_BOUND",
    "DomainError",
    "Factorization",
    "GcdCertificate",
    "HypothesisNotApplicableError",
    "JenkinsDecomposition",
    "JenkinsInstance",
    "MidySet",
    "MidyVerdict",
    "MidylabError",
    "ModulusProfile",
    "OracleCertificate",
    "PeriodExpansion",
    "PreconditionError",
    "PrimeCertificate",
    "PrimePowerStructure",
    "ProgressionTrace",
    "blocks_and_sum",
    "factor",
    "gcd_pow_minus_one",
    "guel_triple",
    "is_prime",
    "is_prime_proven",
    "jenkins_check",
    "jenkins_check_gcd",
    "jenkins_decomposition",
    "jenkins_instance",
    "lift_valuation",
    "midy_check_direct",
    "midy_check_ppl2",
    "midy_check_ppl3",
    "midy_prime_v1_check",
    "midy_set",
    "modulus_profile",
    "order_mod",
    "order_mod_naive",
    "period_digits",
    "prime_power_midy_structure",
    "prime_power_structure",
    "prime_progression",
    "smallest_failing_x",
    "smallest_midy_witness",
    "valuation",
]
