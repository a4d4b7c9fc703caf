"""Figure 8: the worked lottery example.

Components C1..C4 hold 1, 2, 3 and 4 tickets; C1, C3 and C4 have pending
requests (request map 1011), so the contending total is 1 + 3 + 4 = 8.
The drawn number 5 lies in [4, 8) = C4's range, so C4 is granted.
"""

from repro.core.lottery_manager import StaticLotteryManager


class _FixedSource:
    """A random source that replays a scripted sequence of draws."""

    def __init__(self, values):
        self._values = list(values)
        self._cursor = 0

    def draw_below(self, bound):
        value = self._values[self._cursor % len(self._values)]
        self._cursor += 1
        if value >= bound:
            raise ValueError("scripted draw {} out of range {}".format(value, bound))
        return value

    def reset(self):
        self._cursor = 0


class Figure8Result:
    def __init__(self, tickets, request_map, outcome):
        self.tickets = tickets
        self.request_map = request_map
        self.outcome = outcome

    def format_report(self):
        lines = [
            "Figure 8: lottery example",
            "tickets          : {}".format(list(self.tickets)),
            "request map      : {}".format(
                "".join("1" if r else "0" for r in self.request_map)
            ),
            "partial sums     : {}".format(list(self.outcome.partial_sums)),
            "contending total : {}".format(self.outcome.total),
            "drawn number     : {}".format(self.outcome.draw),
            "winner           : C{}".format(self.outcome.winner + 1),
        ]
        return "\n".join(lines)


def run_figure8(draw=5):  # lb: noqa[LB203] — scripted worked example, zero randomness
    """Replay the paper's example; returns a :class:`Figure8Result`."""
    tickets = (1, 2, 3, 4)
    request_map = [True, False, True, True]
    manager = StaticLotteryManager(
        tickets, random_source=_FixedSource([draw]), scale=False
    )
    outcome = manager.draw(request_map)
    return Figure8Result(tickets, request_map, outcome)
