"""The six evaluation applications (paper §V-A) in numeric + kernel form.

>>> from repro.apps import make_app, APP_NAMES
>>> app = make_app("knn", scale="small")
"""

from .base import TransprecisionApp, lanes_for, wider
from .conv import ConvApp
from .data import SCALES, AppScale
from .dwt import DwtApp
from .jacobi import JacobiApp
from .knn import KnnApp
from .pca import PcaApp
from .svm import SvmApp

__all__ = [
    "TransprecisionApp",
    "wider",
    "lanes_for",
    "AppScale",
    "SCALES",
    "JacobiApp",
    "KnnApp",
    "PcaApp",
    "DwtApp",
    "SvmApp",
    "ConvApp",
    "APP_NAMES",
    "APP_CLASSES",
    "make_app",
]

#: Paper order (Figs. 4-7 rows/bars).
APP_CLASSES = {
    "jacobi": JacobiApp,
    "knn": KnnApp,
    "pca": PcaApp,
    "dwt": DwtApp,
    "svm": SvmApp,
    "conv": ConvApp,
}

APP_NAMES = tuple(APP_CLASSES)


def make_app(name: str, scale: str = "small", **kwargs) -> TransprecisionApp:
    """Instantiate an application by its paper name."""
    try:
        cls = APP_CLASSES[name]
    except KeyError:
        known = ", ".join(APP_NAMES)
        raise KeyError(f"unknown app {name!r}; known apps: {known}") from None
    return cls(scale, **kwargs)
