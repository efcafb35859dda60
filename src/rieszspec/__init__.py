"""Constructive spectral analysis over exact rational arithmetic.

Ordered vector lattices with a strong unit, their positivity lattice
with certified covers, spectrum points built as refinable interval
filters, and an f-algebra calculus (square roots, sums of squares,
multiplicativity audits) on commuting symmetric rational matrices.
Everything is tolerance-parametric and float free; every claim a
routine makes is backed by a certificate that can be re-verified with
exact arithmetic.
"""
from .exact import (
    RatInterval,
    Rational,
    RationalMatrix,
    parse_rational,
    format_rational,
    psd_check,
)
from .falgebra import (
    GelfandReport,
    SqrtTrace,
    SumOfSquares,
    abs_element,
    gelfand_check,
    product_positive,
    sqrt_psd,
    sum_of_squares,
)
from .instances import (
    CommutingAlgebra,
    HermElement,
    HermSpace,
    PLElement,
    PLSpace,
    QnElement,
    QnSpace,
)
from .lattice import (
    CoverCertificate,
    LatticeElement,
    cover_interval,
    cover_range,
    certify_cover,
    d_of,
    grid_cells,
    precedes,
    prune_cover,
    shrink_cover,
)
from .riesz import (
    CertificateError,
    LocatedCut,
    MarginCollapseError,
    RieszElement,
    RieszSpace,
    SpaceMismatchError,
    ToleranceError,
    decompose,
    in_interval,
    meet,
    norm_cut,
    unit_bound,
)
from .spectrum import (
    Below,
    PointState,
    Pos,
    SpectrumNet,
    StoneYosidaReport,
    epsilon_net,
    point_new,
    pos_or_below,
    stone_yosida_check,
    sup_approx,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "Rational", "RatInterval", "RationalMatrix",
    "psd_check",
    "parse_rational", "format_rational",
    # contract
    "RieszSpace", "RieszElement", "LocatedCut",
    "SpaceMismatchError", "ToleranceError", "MarginCollapseError",
    "CertificateError",
    "meet", "decompose", "in_interval", "norm_cut", "unit_bound",
    # instances
    "QnSpace", "QnElement", "PLSpace", "PLElement",
    "HermSpace", "HermElement", "CommutingAlgebra",
    # positivity lattice
    "LatticeElement", "CoverCertificate", "d_of", "precedes",
    "certify_cover", "cover_range", "grid_cells", "cover_interval",
    "shrink_cover", "prune_cover",
    # spectrum
    "Pos", "Below", "pos_or_below", "sup_approx",
    "PointState", "point_new",
    "SpectrumNet", "epsilon_net",
    "StoneYosidaReport", "stone_yosida_check",
    # f-algebra
    "SqrtTrace", "SumOfSquares", "GelfandReport",
    "sqrt_psd", "abs_element",
    "product_positive", "sum_of_squares", "gelfand_check",
]
