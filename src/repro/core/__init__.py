"""The Gunrock-style multi-GPU framework core.

Public surface: a primitive is a (:class:`ProblemBase`,
:class:`IterationBase`) pair run by an :class:`Enactor` on a
:class:`~repro.sim.machine.Machine` — the exact shape of the paper's
Appendix A code example.
"""

from .checkpoint import Checkpoint, RecoveryPolicy
from .comm import BROADCAST, SELECTIVE, Message
from .direction import BACKWARD, FORWARD, DirectionState
from .enactor import Enactor
from .frontier import Frontier
from .iteration import GpuContext, IterationBase
from .problem import DataSlice, ProblemBase, RunState
from .stats import OpStats

__all__ = [
    "ProblemBase",
    "DataSlice",
    "RunState",
    "IterationBase",
    "GpuContext",
    "Enactor",
    "Frontier",
    "Message",
    "OpStats",
    "SELECTIVE",
    "BROADCAST",
    "DirectionState",
    "FORWARD",
    "BACKWARD",
    "Checkpoint",
    "RecoveryPolicy",
]
