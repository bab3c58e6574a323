"""Set similarity self-joins under Jaccard thresholds.

Exact baselines (inverted-index prefix join, quadratic scan) and two
approximate algorithms built on minwise signatures: a randomized
candidate-splitting join and a classic bucketing join. Approximate results
are exactly verified, so reported pairs are always true positives.
"""

from .datasets import Dataset, TokensSpec, gen_tokens, gen_uniform, load, save
from .errors import (
    CapacityExceededError,
    EmptyBucketError,
    EmptySetError,
    ParseError,
    SignatureMismatchError,
    SketchMismatchError,
    TokenOverflowError,
)
from .exact import (
    allpairs_join,
    brute_force_join,
    brute_force_join_multi,
    jaccard,
    min_overlap,
    prefix_length,
    verify,
)
from .minhash import MinHashFamily, signature_similarity
from .sketch import SketchFamily, estimate_similarity, filter_threshold, pooled_sketch
from .prep import Prepared, preprocess
from .cpsjoin import CpsConfig, co_bucket_frequency, cps_join, cps_join_prepared
from .lsh import (
    LshConfig,
    choose_k,
    lsh_join,
    lsh_join_prepared,
    repetitions_for_recall,
)
from .stats import JoinStats

__version__ = "0.1.0"

__all__ = [
    "Dataset", "TokensSpec", "gen_tokens", "gen_uniform", "load", "save",
    "jaccard", "verify", "min_overlap", "prefix_length",
    "allpairs_join", "brute_force_join", "brute_force_join_multi",
    "MinHashFamily", "signature_similarity",
    "SketchFamily", "estimate_similarity", "filter_threshold", "pooled_sketch",
    "Prepared", "preprocess",
    "CpsConfig", "cps_join", "cps_join_prepared", "co_bucket_frequency",
    "LshConfig", "lsh_join", "lsh_join_prepared", "choose_k",
    "repetitions_for_recall",
    "JoinStats",
    "EmptySetError", "SignatureMismatchError", "SketchMismatchError",
    "EmptyBucketError", "CapacityExceededError", "TokenOverflowError",
    "ParseError",
    "__version__",
]
