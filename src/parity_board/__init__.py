"""Exact combinatorics of partitions, strict partitions, and staircase
sequences, with brute-force verification sweeps for the identities that tie
them together.  Each module's ``__all__`` is the one list of its public
names."""

from .abseq import *
from .bijections import *
from .partitions import *
from .qseries import *
from .verify import *

__version__ = "0.1.0"
