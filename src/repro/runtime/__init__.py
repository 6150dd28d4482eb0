"""Live (wall-clock) runtime: the ProActive analog.

Three real farm substrates with the same monitoring/actuator surface as
the simulated one — threads (:mod:`~.farm_runtime`), supervised OS
processes with crash replay (:mod:`~.process_farm`), and TCP-connected
worker processes behind an asyncio coordinator (:mod:`~.dist_farm`) —
each a transport over one shared :class:`~.farm_core.FarmCore` (task
table, replay, dedup, admission gate) and all behind the
:class:`~.backend.FarmBackend` protocol, a controller that runs the *same*
Figure 5 rule set against any live backend (:mod:`~.controller`) —
mechanism/policy separation made concrete — and live multi-concern
coordination (:mod:`~.multiconcern`): a general manager running the
two-phase intent protocol over any backend's admission gate.  See
``docs/RUNTIME.md`` and ``docs/MULTICONCERN.md``.
"""

from .backend import FarmBackend, RuntimeFarmSnapshot
from .controller import FarmController
from .dist_farm import DistFarm, DistWorkerHandle
from .farm_core import DeadLetter, FarmCore
from .farm_runtime import ThreadFarm, ThreadWorker
from .multiconcern import LiveGeneralManager, WorkerPlacement
from .process_farm import ProcessFarm, ProcessWorkerHandle

__all__ = [
    "FarmBackend",
    "FarmController",
    "FarmCore",
    "ThreadFarm",
    "ThreadWorker",
    "RuntimeFarmSnapshot",
    "ProcessFarm",
    "ProcessWorkerHandle",
    "DeadLetter",
    "DistFarm",
    "DistWorkerHandle",
    "LiveGeneralManager",
    "WorkerPlacement",
]
