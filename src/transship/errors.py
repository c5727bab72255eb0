"""Exception types shared across the package.

Every error that can escape the library API derives from TransshipError so
callers (and the CLI) can map failures to outcomes without matching on
message strings.
"""


class TransshipError(Exception):
    """Base class for all errors raised by this package."""


class InstanceFormatError(TransshipError):
    """An instance or flow document could not be parsed.

    The message names the offending field (e.g. ``arcs[3].capacity``) so
    users can fix their input without reading a stack trace.
    """


class InfeasibleForever(TransshipError):
    """Some terminal subset has positive net supply but zero escape capacity.

    No deadline, however large, admits a feasible transshipment: the subset
    can never route its surplus to the sinks outside it.
    """

    def __init__(self, nodes, net_supply):
        self.nodes = tuple(nodes)
        self.net_supply = net_supply
        super().__init__(
            "no finite deadline is feasible: terminal group {%s} has net supply %s "
            "and no path of positive capacity to the remaining sinks"
            % (",".join(str(v) for v in self.nodes), net_supply)
        )


class InfeasibleDeadline(TransshipError):
    """The requested deadline is too small for any feasible transshipment."""

    def __init__(self, theta, shortfall=None):
        self.theta = theta
        self.shortfall = shortfall
        detail = "" if shortfall is None else " (short by %s)" % shortfall
        super().__init__("no feasible transshipment by deadline %s%s" % (theta, detail))


class InvariantViolation(TransshipError):
    """An internal consistency check failed.

    These checks guard results the algorithms guarantee (certificates,
    lattice minimizers, agreeing solver variants); a failure means a bug,
    not bad input.  They are ordinary raises, so they also run under
    ``python -O``.
    """


class SubsetCapExceeded(TransshipError):
    """Too many terminals for brute-force subset enumeration."""

    def __init__(self, k, cap):
        self.k = k
        self.cap = cap
        super().__init__(
            "instance has %d terminals; brute-force subset enumeration is capped "
            "at %d (raise the cap, --bf-cap on the command line)" % (k, cap)
        )


class NodeCapExceeded(TransshipError):
    """An instance declares more nodes than the package accepts."""

    def __init__(self, nodes, cap):
        self.nodes = nodes
        self.cap = cap
        super().__init__("instance declares %d nodes, over the cap of %d"
                         % (nodes, cap))


class ExpansionCapExceeded(TransshipError):
    """A time expansion would exceed its budget of node or arc copies."""

    def __init__(self, needed, cap, what):
        self.needed = needed
        self.cap = cap
        self.what = what
        super().__init__(
            "time expansion needs %d %s copies, over the cap of %d"
            % (needed, what, cap)
        )
