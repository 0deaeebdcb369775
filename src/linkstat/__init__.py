"""Statics toolkit for a spring-loaded parallel-link gripper finger.

Predicts whether pressing the closed fingertip against an object edge
keeps the grip (parallel mode) or swings the finger open (turn-over
mode), maps the envelope of press directions that open it, and searches
the linkage design space for builds meeting envelope and force targets.
"""

from importlib import import_module as _import_module

from . import model, modeswitch, paramfile, statics
from .model import *
from .modeswitch import *
from .paramfile import *
from .statics import *

__version__ = "0.1.0"

# The design search loads on first access (PEP 562), so that importing
# linkstat, and every CLI command but ``optimize``, leaves it unloaded.
_DESIGN_NAMES = frozenset({
    "DesignEvaluation",
    "DesignResult",
    "DesignSpec",
    "DesignStatus",
    "VerificationRecord",
    "evaluate_design",
    "optimize_design",
    "sensitivity",
})


def __getattr__(name: str):
    if name == "design":
        return _import_module(".design", __name__)
    if name in _DESIGN_NAMES:
        value = getattr(_import_module(".design", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([
    *model.__all__,
    *modeswitch.__all__,
    *paramfile.__all__,
    *statics.__all__,
    *_DESIGN_NAMES,
    "__version__",
])
