"""Exact solvers and sharp lower bounds for signed and nonnegative signed
k-subdomination numbers of simple graphs.

The public names are each submodule's ``__all__``; nothing is listed twice."""

from .bounds import *  # noqa: F403
from .graph import *  # noqa: F403
from .reference import *  # noqa: F403
from .solver import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"
