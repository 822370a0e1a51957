"""tricl: template-guided tri-modal contrastive learning for acoustic
target recognition, desk-scale and dependency-light."""

from .heap import keep_freed_arrays

__version__ = "0.1.0"

keep_freed_arrays()
