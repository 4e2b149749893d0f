"""Low-rank adapter optimization via alternating least-squares updates."""

from .lorsum import lorsum

__version__ = "0.1.0"
