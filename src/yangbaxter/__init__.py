"""Exact-arithmetic workbench for Yang-Baxter r-matrices of Belavin-Drinfeld type.

Builds the classical, quantum and two-parameter associative solutions
attached to Belavin-Drinfeld triples on Mat_n, and certifies the CYBE,
QYBE, Hecke, AYBE and unitarity identities symbolically (exact rational
functions) or numerically (seeded complex sampling).
"""

__version__ = "0.1.0"

from .scalars import (
    LaurentPoly,
    PoleOrderError,
    RatFunc,
    rf,
)
from .series import expand_in_u
from .tensors import Tensor2, Tensor3, gauge_conjugate
from .triples import (
    AssocStructure,
    BDTriple,
    Root,
    SWedge,
    compatible_permutations,
    enumerate_cg_triples,
    enumerate_triples,
    is_valid,
    s0_from_structure,
    solve_s_system,
    validate_triple,
)
from .builders import (
    baxterize,
    build_R_ggs_assoc,
    build_R_ggs_general,
    build_a,
    build_r_ts,
    build_r_uv,
    build_rst,
    build_y,
    hat_r,
)
from .verify import (
    VerifyReport,
    aybe_residual,
    lift_obstruction,
    check_lift,
    cybe_residual,
    cybe_spectral_residual,
    hecke_residual,
    numeric_residual,
    pr_limit_check,
    qybe_residual,
    unitarity_check,
)
