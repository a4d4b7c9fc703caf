"""Output-queued ATM switch cell-forwarding unit (Section 5.3).

The system: arriving cell payloads are written into a dual-ported shared
memory while each cell's address is pushed onto the destination port's
local output queue.  Every output port polls its queue; when non-empty
it dequeues an address, requests the shared system bus, reads the cell
out of the shared memory, and forwards it on its output link.  The bus
arbiter therefore decides how cell-forwarding bandwidth is divided among
the ports.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".cell": ("ATMCell", "CELL_WORDS"),
    ".port": ("OutputPort",),
    ".queue": ("OutputQueue",),
    ".scheduler": ("CellArrivalScheduler",),
    ".shared_memory": ("SharedCellMemory",),
    ".switch": ("OutputQueuedSwitch", "SwitchReport"),
    ".workload": ("BernoulliArrivals", "OnOffArrivals", "PortWorkload"),
})
