"""The static lottery manager's precomputed range tables (Section 4.3).

With statically assigned tickets, the cumulative ticket ranges for every
possible subset of requesters can be precomputed: an ``n``-master bus has
``2**n`` request maps, and for each map the table stores the ``n``
partial sums ``sum_{k<=i} r_k * t_k``.  At run time the manager indexes
the table with the request map and compares the random draw against the
stored sums in parallel.
"""

import threading
from collections import OrderedDict

from repro.core.tickets import TicketAssignment


def request_map_to_index(request_map):
    """Pack a request map into a table index, master 0 at bit 0.

    Any truthy entry requests, so per-master pending word counts pack
    as they are.
    """
    index = 0
    for bit, pending in enumerate(request_map):
        if pending:
            index |= 1 << bit
    return index


def index_to_request_map(index, num_masters):
    """Unpack a table index back into a list of booleans."""
    return [(index >> bit) & 1 == 1 for bit in range(num_masters)]


class LotteryLookupTable:
    """Precomputed partial-sum table for one ticket assignment.

    :param tickets: a :class:`TicketAssignment` (or plain sequence) of
        the *scaled* holdings the hardware will use.
    """

    def __init__(self, tickets):
        if not isinstance(tickets, TicketAssignment):
            tickets = TicketAssignment(tickets)
        self.tickets = tickets
        n = tickets.num_masters
        self.num_masters = n
        self._rows = []
        for index in range(1 << n):
            request_map = index_to_request_map(index, n)
            self._rows.append(tuple(tickets.partial_sums(request_map)))

    def partial_sums(self, request_map):
        """The stored partial sums for this request map."""
        return self._rows[request_map_to_index(request_map)]

    def partial_sums_at(self, index):
        """The stored partial sums for a pre-packed request-map index —
        the hot-path variant of :meth:`partial_sums` for callers that
        already hold the packed map."""
        return self._rows[index]

    def total_for(self, request_map):
        """Total contending tickets for this request map."""
        return self._rows[request_map_to_index(request_map)][-1]

    def rows(self):
        """All (index, partial_sums) rows — useful for hardware dumps."""
        return list(enumerate(self._rows))

    @property
    def entry_bits(self):
        """Bits per stored partial sum (enough for the ticket total)."""
        return max(1, (self.tickets.total).bit_length())

    @property
    def storage_bits(self):
        """Total register-file bits the table occupies in hardware."""
        return (1 << self.num_masters) * self.num_masters * self.entry_bits

    def __repr__(self):
        return "LotteryLookupTable(masters={}, total={})".format(
            self.num_masters, self.tickets.total
        )


# Replicated systems and sweep points routinely share a ticket
# assignment (every seed of a replication, every traffic class of a
# sweep row), yet each static manager used to rebuild the same 2**n-row
# table.  The table is immutable after construction, so one instance can
# back any number of managers; this process-wide memo shares it and
# counts the reuse.  Workers in a process pool each hold their own memo
# (the cache is per-process state, never pickled), and the lock keeps
# the count honest under threads.
_SHARED_LOCK = threading.Lock()
_SHARED_TABLES = OrderedDict()
_SHARED_STATS = {"builds": 0, "hits": 0, "evictions": 0}
_SHARED_CAPACITY = 256


def shared_lookup_table(tickets):
    """A (possibly shared) :class:`LotteryLookupTable` for ``tickets``.

    Identical scaled holdings return the *same* table object; distinct
    holdings build and memoize a new one.  The memo is LRU-bounded to
    ``256`` assignments so unbounded sweeps cannot grow it without
    limit.
    """
    if not isinstance(tickets, TicketAssignment):
        tickets = TicketAssignment(tickets)
    key = tuple(tickets.tickets)
    with _SHARED_LOCK:
        table = _SHARED_TABLES.get(key)
        if table is not None:
            _SHARED_STATS["hits"] += 1
            _SHARED_TABLES.move_to_end(key)
            return table
    # Build outside the lock: construction is O(2**n) and pure, and a
    # rare duplicate build under a race costs only the wasted table.
    table = LotteryLookupTable(tickets)
    with _SHARED_LOCK:
        existing = _SHARED_TABLES.get(key)
        if existing is not None:
            _SHARED_STATS["hits"] += 1
            _SHARED_TABLES.move_to_end(key)
            return existing
        _SHARED_STATS["builds"] += 1
        _SHARED_TABLES[key] = table
        while len(_SHARED_TABLES) > _SHARED_CAPACITY:
            _SHARED_TABLES.popitem(last=False)
            _SHARED_STATS["evictions"] += 1
    return table


def lookup_table_cache_stats():
    """Reuse counters for the shared-table memo (plus current size)."""
    with _SHARED_LOCK:
        stats = dict(_SHARED_STATS)
        stats["entries"] = len(_SHARED_TABLES)
    return stats


def reset_lookup_table_cache():
    """Drop all memoized tables and zero the counters (test hook)."""
    with _SHARED_LOCK:
        _SHARED_TABLES.clear()
        for key in _SHARED_STATS:
            _SHARED_STATS[key] = 0
