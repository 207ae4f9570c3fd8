"""Exact-arithmetic toolkit for two families of board tilings.

The package enumerates domino-and-square tilings (family D) and
white/black/decorated square tilings (family B), evaluates the five
binomial sums counting their plus classes, implements the bijections
connecting them, and machine-verifies every identity in the chain with
brute-force oracles. All arithmetic is exact.
"""

from .arrangements import (
    DominoArrangement,
    SignClass,
    SquareArrangement,
    SquareKind,
    TileKind,
    decode_domino,
    decode_square,
    encode,
    render_ascii,
    sign_class_domino,
    sign_class_square,
    validate_domino,
    validate_square,
    weight,
)
from .bijections import (
    ConjugationKind,
    ConjugationOutcome,
    MarkedColoredBoard,
    board_to_domino,
    coloring_of,
    conjugate,
    domino_to_board,
    domino_to_square,
    enumerate_marked_boards,
    epsilon_minus,
    epsilon_plus,
    square_to_domino,
)
from .enumeration import (
    DEFAULT_MAX_CELLS_B,
    DEFAULT_MAX_CELLS_D,
    ClassFilter,
    StratumKind,
    WeightParity,
    count,
    enumerate_B,
    enumerate_D,
    list_encodings,
    stratify,
)
from .errors import (
    ENV_MAX_CELLS,
    EmptyBoard,
    FirstCellNotBlack,
    InternalInvariantViolation,
    LastCellBlack,
    LastSquaresError,
    NonIntegralResult,
    NotPlusClass,
    ParityMismatch,
    ParseError,
    RangeError,
    SizeLimitExceeded,
)
from .formulas import (
    binom,
    companion_identity,
    eval_S,
    eval_T,
    eval_U,
    eval_V,
    eval_W,
    gf_coefficients,
    moriarty,
    oddness_and_divisibility,
    recurrence_residual,
    terms_T,
    terms_U,
    terms_V,
    terms_W,
)
from .verify import (
    Status,
    VerificationReport,
    report_to_json,
    report_to_plain,
    summarize,
    summary_to_json,
    verify_all,
    verify_auxiliary,
    verify_lemma,
    verify_strata,
    verify_theorem,
)

__version__ = "0.1.0"
