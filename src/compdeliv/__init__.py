"""Universal lossless codes for the two-terminal complementary delivery system."""

from .types_core import (
    Alphabet,
    BINARY,
    JointType,
    Sequence,
    TypeVector,
    enumerate_joint_types,
    joint_type_of,
    rank_in_type_class,
    type_class_size,
    type_of,
    unrank_in_type_class,
    v_shell_size,
    w_shell_size,
)
from .info_measures import (
    ExponentReport,
    SourceSpec,
    achievable_rate,
    conditional_entropy,
    converse_correct_exponent,
    correct_exponent_inside,
    dsbs,
    entropy,
    epsilon_n,
    error_exponent_outside,
    in_decodable_region,
    kl_divergence,
    prob_of_type_class,
    uniform_independent,
)
from .ff_codec import (
    FFCodeConfig,
    FFCodeword,
    codebook_size,
    exact_error_probability,
    ff_decode_x,
    ff_decode_y,
    ff_encode,
    rate_bound_check,
)
from .fv_codec import (
    FVCodeword,
    expected_length,
    fv_decode_x,
    fv_decode_y,
    fv_encode,
    overflow_probability,
    underflow_probability,
    wrap_ff_as_fv,
)
from .simulator import ExperimentReport, TrialPlan, run_plan

__version__ = "0.1.0"
