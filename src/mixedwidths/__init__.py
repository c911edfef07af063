"""Constructive geometry of balls in mixed norms: exact norm arithmetic,
affine-line designs, grid partitions, spreading operators, a block-sparse
approximation pipeline, width formulas, and a rigidity classifier."""

from . import designs, norms, partitions, spread, widths
from .designs import *  # noqa: F403
from .norms import *  # noqa: F403
from .partitions import *  # noqa: F403
from .spread import *  # noqa: F403
from .widths import *  # noqa: F403

__all__ = sorted(
    {name for module in (designs, norms, partitions, spread, widths) for name in module.__all__}
)
