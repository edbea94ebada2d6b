"""cylmeasure: measure theory on sequence spaces at desk scale.

Product and cylinder-set measures, diagonal Gaussian measures with Wick
moments, shift densities and equivalence classification, weighted-space
support diagnostics, translation-invariant covariance kernels on the
line, and Haar measure on the torus family of the compactified line.
Every analytic formula is paired with an independent Monte Carlo or
quadrature oracle in the test suite and the ``selftest`` gate.

``import cylmeasure`` loads no submodule: each name below, and each
submodule, is imported on first use (PEP 562), so a CLI call pays only
for the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "bohr": ("FrequencySet", "HaarIntegralResult", "IndependenceResult", "MCMethod",
             "QuadratureMethod", "haar_cylinder_integral", "haar_sample_batch",
             "independence_check"),
    "errors": ("InputError", "NumericError", "UndecidableError"),
    "gaussian": ("CovarianceSeq", "GaussianSample", "GramReport", "chi", "draw_coordinates",
                 "inner", "mc_mean", "mc_moment", "pairings", "positive_type_gram", "sample",
                 "wick_moment"),
    "kernels": ("FourierQuadResult", "GridFunction", "KernelRegularity", "KernelSpec",
                "MassiveFree1D", "TabulatedKernel", "WhiteNoise", "covariance_bilinear",
                "kernel_fourier_quadrature"),
    "measure_core": ("ConstantFactorTail", "ConsistencyResult", "CylinderSet", "FullTail",
                     "Gaussian1D", "IncreasingLimitReport", "Interval", "MarginalTable",
                     "OneMinusGeometricTail", "PointMass1D", "ProductLimitReport",
                     "ProductMeasureSpec", "ProductSampler", "TabulatedTail",
                     "TailConstraints", "Uniform1D", "consistency_check",
                     "countable_product_measure", "cylinder_measure", "increasing_limit",
                     "pushforward_integral_mc"),
    "seeding": ("derive_seed",),
    "selftest": ("run_selftest",),
    "sequences": ("Constant", "ConstantPlusPower", "FiniteSequence", "Geometric", "PowerDecay",
                  "Prefixed", "Tabulated"),
    "support": ("DiagonalOperator", "Support", "SupportReport", "TailGrowthReport",
                "hilbert_schmidt_check", "mc_tail_growth", "weighted_support_check"),
    "transform": ("Equivalence", "EquivalenceVerdict", "ShiftSpec", "equivalence_classify",
                  "rn_density", "shift_admissible"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "jsonio"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
