"""Affine composition-sum operators and their singular fixed points."""

__version__ = "0.1.0"

from .cso import AffineCso, AffineMap, make_cso
from .series import DiscSeries, make_series
from .singular import SingularFunction, log_term, pole_term

__all__ = [
    "AffineCso",
    "AffineMap",
    "DiscSeries",
    "SingularFunction",
    "log_term",
    "make_cso",
    "make_series",
    "pole_term",
]
