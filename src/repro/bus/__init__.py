"""Shared-bus substrate: transactions, interfaces, buses, bridges."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".address_map": ("AddressedMaster", "AddressError", "AddressMap"),
    ".bridge": ("Bridge",),
    ".bus": ("SharedBus",),
    ".checker": ("BusChecker", "CheckerViolation"),
    ".master": ("MasterInterface",),
    ".network": ("BusNetwork", "NetworkError"),
    ".slave": ("Slave",),
    ".topology": ("BusSystem", "build_single_bus_system"),
    ".transaction": ("Grant", "Request"),
})
