"""Output-queued ATM switch cell-forwarding unit (Section 5.3).

The system: arriving cell payloads are written into a dual-ported shared
memory while each cell's address is pushed onto the destination port's
local output queue.  Every output port polls its queue; when non-empty
it dequeues an address, requests the shared system bus, reads the cell
out of the shared memory, and forwards it on its output link.  The bus
arbiter therefore decides how cell-forwarding bandwidth is divided among
the ports.
"""

from repro.atm.cell import ATMCell, CELL_WORDS
from repro.atm.port import OutputPort
from repro.atm.queue import OutputQueue
from repro.atm.scheduler import CellArrivalScheduler
from repro.atm.shared_memory import SharedCellMemory
from repro.atm.switch import OutputQueuedSwitch, SwitchReport
from repro.atm.workload import BernoulliArrivals, OnOffArrivals, PortWorkload

__all__ = [
    "ATMCell",
    "CELL_WORDS",
    "OutputPort",
    "OutputQueue",
    "CellArrivalScheduler",
    "SharedCellMemory",
    "OutputQueuedSwitch",
    "SwitchReport",
    "BernoulliArrivals",
    "OnOffArrivals",
    "PortWorkload",
]
