"""cylmeasure: measure theory on sequence spaces at desk scale.

Product and cylinder-set measures, diagonal Gaussian measures with Wick
moments, shift densities and equivalence classification, weighted-space
support diagnostics, translation-invariant covariance kernels on the
line, and Haar measure on the torus family of the compactified line.
Every analytic formula is paired with an independent Monte Carlo or
quadrature oracle in the test suite and the ``selftest`` gate.
"""

from .bohr import (
    FrequencySet,
    HaarIntegralResult,
    IndependenceResult,
    MCMethod,
    QuadratureMethod,
    haar_cylinder_integral,
    haar_sample_batch,
    independence_check,
)
from .errors import InputError, NumericError, UndecidableError
from .gaussian import (
    CovarianceSeq,
    GaussianSample,
    GramReport,
    chi,
    draw_coordinates,
    inner,
    pairings,
    positive_type_gram,
    sample,
    wick_moment,
)
from .kernels import (
    BilinearReport,
    FourierQuadResult,
    GridFunction,
    KernelRegularity,
    KernelSpec,
    MassiveFree1D,
    TabulatedKernel,
    WhiteNoise,
    covariance_bilinear,
    covariance_bilinear_report,
    kernel_eval,
    kernel_fourier_quadrature,
    support_regularity_flag,
)
from .measure_core import (
    ConstantFactorTail,
    ConsistencyResult,
    CylinderSet,
    FullTail,
    Gaussian1D,
    IncreasingLimitReport,
    Interval,
    MarginalTable,
    OneMinusGeometricTail,
    PointMass1D,
    ProductLimitReport,
    ProductMeasureSpec,
    ProductSampler,
    TabulatedTail,
    TailConstraints,
    Uniform1D,
    consistency_check,
    countable_product_measure,
    cylinder_measure,
    increasing_limit,
    pushforward_integral_mc,
)
from .seeding import derive_seed
from .selftest import run_selftest
from .sequences import (
    Constant,
    ConstantPlusPower,
    FiniteSequence,
    Geometric,
    PowerDecay,
    Prefixed,
    Tabulated,
)
from .support import (
    DiagonalOperator,
    Support,
    SupportReport,
    TailGrowthReport,
    hilbert_schmidt_check,
    mc_tail_growth,
    nuclear_embedding_check,
    weighted_support_check,
)
from .transform import (
    EmptyFamily,
    Equivalence,
    EquivalenceVerdict,
    FinitelySupportedFamily,
    ShiftSpec,
    WeightedL2Family,
    equivalence_classify,
    ergodicity_flag,
    rn_density,
    shift_admissible,
)

__version__ = "0.1.0"
