"""Exception types shared across the package.

Every error that can escape the library API derives from TransshipError so
callers (and the CLI) can map failures to outcomes without matching on
message strings.  Every cap (terminals for subset enumeration, instance
nodes and arcs, scale bits, time-expansion copies) fails with the one
ResourceCapExceeded.
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


class ResourceCapExceeded(TransshipError):
    """An input, or what would be built from it, is over a cap.

    ``needed`` is the count, ``what`` the thing counted and ``cap`` the
    limit: "terminals" for subset enumeration (a ``ProfileCache``'s subset
    cap, 2^k subsets), "nodes" for ``MAX_NODES``, "arcs" for ``MAX_ARCS``,
    "scale bits" for ``MAX_SCALE_BITS`` (the lcm of an instance's
    denominators), and "node copies" or "arc copies" for a time expansion's
    node cap.
    """

    _FLAGS = {"terminals": "--bf-cap", "node copies": "--expansion-cap",
              "arc copies": "--expansion-cap"}

    def __init__(self, needed, cap, what):
        self.needed, self.cap, self.what = needed, cap, what
        flag = self._FLAGS.get(what)
        super().__init__(
            "%d %s exceed the cap at %d%s"
            % (needed, what, cap,
               "" if flag is None else " (raise the cap, %s on the command line)" % flag)
        )
