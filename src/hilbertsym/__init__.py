"""Hilbert transforms on the line and circle, the scale/shift group and
rational-dilation semigroup acting on them, and a symmetry engine that
extracts the scalar structure of operators commuting with those actions.

Submodules load on first use (PEP 562): ``import hilbertsym`` imports none
of them, and ``hilbertsym.dilate`` imports ``line_ops`` when first read.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "signals": (
        "CircleSamples", "CircleSignal", "Grid1D", "LineSignal", "LineSpectrum",
        "dft", "idft", "inner_product", "norm",
    ),
    "line_ops": (
        "AffineElement", "AliasingError", "HalfLineSignal", "dilate", "group_compose",
        "group_inverse", "hardy_project", "hilbert_multiplier", "hilbert_pv_quadrature",
        "intertwine_defect", "rep_fourier_side", "rep_natural", "translate",
    ),
    "circle_ops": (
        "MoebiusElement", "RationalScale", "SignalFamily", "annihilator_witness",
        "cauchy_pv", "cauchy_symbol", "circular_convolve", "circular_hilbert",
        "circular_hilbert_quadrature", "mean_functional", "moebius_act",
        "plemelj_project", "semigroup_act", "semigroup_act_samples", "zero_set",
    ),
    "symmetry": (
        "FourierBasis", "LineBasis", "OperatorMatrix", "ScalarDecomposition",
        "classify_pm_hilbert", "commutator_defect", "decompose_circle_operator",
        "decompose_line_operator", "rotation_commutant_analysis",
        "synthesize_commuting_operator",
    ),
    "probes": ("make_probes",),
    "verify": ("SuiteConfig", "SuiteReport", "run_verify"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # Read from the submodule on every access rather than cached here, so a
    # function rebound in its module (by a wrapper, say) is seen through the
    # package too.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
