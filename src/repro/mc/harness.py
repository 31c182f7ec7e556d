"""One model-checking run: scope, world construction, trace, checks.

A *scope* is the small fixed configuration the checker exhausts:
``txns`` distributed transactions (each writing one key per shard, so
every one is a full 2PC) over ``nodes`` nodes, a set of enumerable
adversary actions, and a set of crash-eligible protocol events from the
shared :mod:`repro.mc.faults` vocabulary.

:func:`run_one` executes a single choice trace against a fresh cluster,
driving the shared fault workload of :mod:`repro.mc.workload`, and
audits the end state with its :func:`~repro.mc.workload.audit`:

* **safety** (always): the strict I1–I5 monitor runs online and stops
  the run at the violating instant; afterwards the audit re-reads every
  written key through fresh transactions and checks atomicity and
  durability.
* **liveness** (drop-free schedules only): quiescence — every node back
  up, no locks held, no in-doubt participant transactions, and the
  monitor's I4/I5 tail sweep.

Mutations (``MUTATIONS``) disable one recovery rule each, so the test
suite can demonstrate that the checker actually finds the resulting
protocol bugs and shrinks them to minimal counterexamples.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from ..config import ClusterConfig, TREATY_FULL
from ..core import TreatyCluster
from ..core.pipeline import DurabilityPipeline
from ..core.twopc import ClogRecord, Coordinator
from ..errors import NetworkError, TransactionAborted
from ..net.adversary import ENUMERATED_DELAY
from ..net.message import MsgType
from ..obs.monitor import MonitorViolation
from .controller import TraceController
from .digest import DiskCrcCache
from .faults import protocol_crash_points
from .workload import audit, drive, spread_txns

__all__ = [
    "Scope", "RunResult", "MUTATIONS", "parse_scope", "run_one",
    "mutation_scope", "DEFAULT_FRAME_TYPES",
]

#: Frame kinds the explorer branches on: the 2PC control plane plus the
#: counter-stabilization plane (piggybacked ACKs ride TXN_PREPARE
#: responses; fences and counter echoes are first-class).  Data-plane
#: reads/writes and client traffic are delivered untouched — they carry
#: no protocol decisions.
DEFAULT_FRAME_TYPES = (
    MsgType.TXN_PREPARE,
    MsgType.TXN_COMMIT,
    MsgType.TXN_ABORT,
    MsgType.TXN_FENCE,
    MsgType.TXN_RESOLVE,
    MsgType.COUNTER_UPDATE,
    MsgType.COUNTER_ECHO,
    MsgType.COUNTER_CONFIRM,
)


@dataclass(frozen=True)
class Scope:
    """The bounded world the checker exhausts."""

    txns: int = 2
    nodes: int = 3
    #: commit protocol under test (``ClusterConfig.protocol``).
    protocol: str = "optimized"
    seed: int = 2022
    #: rollback-protection backend under test (``ClusterConfig.
    #: rollback_backend``): "counter-sync", "counter-async" or "lcm".
    backend: str = "counter-sync"
    #: independent counter groups (``ClusterConfig.counter_shards``).
    shards: int = 1
    #: adversary actions enumerable per eligible frame ("deliver" is
    #: always option 0 and not listed here).
    actions: Tuple[str, ...] = ("drop", "duplicate", "delay")
    action_delay: float = ENUMERATED_DELAY
    frame_types: Tuple[int, ...] = DEFAULT_FRAME_TYPES
    #: crash-eligible (category, name) trace events; () disables
    #: crashes, ``None`` selects the protocol's own points.
    crash_points: Optional[Tuple[Tuple[str, str], ...]] = None
    #: victim offsets relative to the emitting node (0 = the emitter).
    crash_offsets: Tuple[int, ...] = (0,)
    max_crashes: int = 1
    #: ``ClusterConfig.decision_timeout_s`` for the run.
    decision_timeout: float = 3.0
    #: crashed nodes stay dead: the recovery pass is skipped and the
    #: survivors must converge on their own via the completer protocol
    #: (liveness is then asserted on the survivors only).
    no_restart: bool = False
    #: optional same-instant ready-set exploration (0/1 disables).
    tie_window: int = 0
    #: sim-seconds for the main workload phase (past the 2 s prepare-vote
    #: timeout plus resolution retries).
    pre_horizon: float = 4.0
    #: sim-seconds after each recovery round.
    post_horizon: float = 3.0
    #: client give-up timeout for a stalled put phase.
    give_up: float = 2.5
    #: I5 bound fed to the monitor.
    liveness_timeout: float = 6.0

    # The horizons are deliberately tight: a crashed node's zombie
    # counter driver raises FreshnessError ~15 sim-seconds after the
    # crash (max_retries x (round timeout + backoff)) out of an unwaited
    # fiber.  Keeping pre + (max_crashes + 1) * post below that bound
    # means the run always ends before any zombie detonates.

    def __post_init__(self):
        if self.crash_points is None:
            object.__setattr__(
                self, "crash_points", protocol_crash_points(self.protocol)
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            f.name: list(v) if isinstance(v := getattr(self, f.name), tuple)
            else v
            for f in fields(self)
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scope":
        kwargs: Dict[str, Any] = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if isinstance(value, list):
                value = tuple(
                    tuple(item) if isinstance(item, list) else item
                    for item in value
                )
            kwargs[f.name] = value
        return cls(**kwargs)


def parse_scope(spec: str, **overrides: Any) -> Scope:
    """Parse ``"<txns>x<nodes>"`` (e.g. ``2x3``) into a :class:`Scope`."""
    txns_str, _, nodes_str = spec.lower().partition("x")
    if not nodes_str:
        raise ValueError("scope must look like '2x3' (txns x nodes)")
    return Scope(txns=int(txns_str), nodes=int(nodes_str), **overrides)


# -- mutations: recovery rules the checker should catch when broken ----------

def _disable(
    owner: type, name: str, doc: str, result: Any = None,
    kind: Optional[int] = None,
):
    """A context manager that stubs out generator method ``owner.name``.

    The patched methods are all spawned as fibers (or yielded from), so
    the stub is a generator function too: it does nothing and returns
    ``result``.  With ``kind``, only calls whose first argument is a
    record of that kind are stubbed; the others run the method.
    ``patch.target`` names the seam, so a test can check that every
    mutation still points at a method that exists.
    """

    @contextlib.contextmanager
    def patch():
        original = getattr(owner, name)

        def stub(self, *args, **kwargs):
            if kind is not None and args[0].kind != kind:
                return (yield from original(self, *args, **kwargs))
            return result

        stub.__doc__ = doc
        setattr(owner, name, stub)
        try:
            yield
        finally:
            setattr(owner, name, original)

    patch.__doc__ = doc
    patch.target = (owner, name)
    return patch


MUTATIONS = {
    # §VI: a recovering coordinator must re-broadcast decided aborts —
    # the pre-crash coordinator may have logged ABORT and died before
    # any participant heard it.  Disabled (the ``replayed`` entry skips
    # a Clog ABORT), a participant prepared under a twice-crashed
    # coordinator holds its locks forever.
    "no-abort-rebroadcast": _disable(
        Coordinator, "replay",
        "mutation: decided aborts are not re-broadcast",
        kind=ClogRecord.ABORT,
    ),
    # §VI: a recovering coordinator re-drives decided commits so
    # participants that never heard the decision converge.  Disabled
    # (the ``replayed`` entry skips a Clog COMMIT), a coordinator that
    # logged COMMIT and died before broadcasting leaves every
    # participant's prepared half (and its locks) in doubt forever.
    "no-commit-redrive": _disable(
        Coordinator, "replay",
        "mutation: decided commits are not re-driven",
        kind=ClogRecord.COMMIT,
    ),
    # §VI + coverage promises: a transaction must not be acknowledged
    # before its targets are covered by a stable counter frontier
    # (acked ⇒ covered ⇒ stable-before-externalized).  This stubs out
    # the coordinator's group stabilization, so commits are externalized
    # with no counter coverage at all — the monitor's I1/I2 checks must
    # flag it without any adversary perturbation.
    "ack-before-covered": _disable(
        DurabilityPipeline, "stabilize_group",
        "mutation: transactions ack without lease coverage",
    ),
    # §VII non-blocking commit: the coordinator must not acknowledge the
    # client until its commit decision is sealed on a quorum of attested
    # participants.  This stubs decision replication to report success
    # without sending (or stabilizing) anything, so the commit is
    # externalized with neither a durable decision quorum nor counter
    # coverage — I1/I2 flag the very first unperturbed run.
    "reply-before-decision-quorum": _disable(
        Coordinator, "_replicate_decision",
        "mutation: client acked before decision quorum",
        result=True,
    ),
}


def mutation_scope(name: str) -> Scope:
    """A focused scope in which ``name``'s bug is reachable quickly.

    Crash-only scopes (no adversary actions) keep liveness checks armed
    — both shipped mutations manifest as stuck locks / unresolved
    in-doubt transactions, which only the drop-free audit asserts.
    """
    # The two recovery mutations target §VI's coordinator-driven
    # redrive rules.  Under ``optimized``, decision replication
    # independently converges the same schedules through the completer
    # protocol, so the scopes run ``paper`` to keep each disabled rule's
    # bug demonstrable.
    if name == "no-abort-rebroadcast":
        return Scope(
            protocol="paper",
            actions=(),
            crash_points=(("twopc", "prepare_ack"), ("twopc", "decision")),
            max_crashes=2,
        )
    if name == "no-commit-redrive":
        # The bug needs a coordinator to die exactly between logging
        # COMMIT and broadcasting it — the twopc/decision crash point.
        return Scope(
            protocol="paper",
            actions=(),
            crash_points=(("twopc", "decision"),),
            max_crashes=1,
        )
    if name == "ack-before-covered":
        # Acking without coverage violates I1/I2 on the very first
        # unperturbed run — no adversary actions or crashes needed; the
        # counterexample is the empty trace under the async backend.
        return Scope(
            actions=(),
            crash_points=(),
            max_crashes=0,
            backend="counter-async",
            shards=2,
        )
    if name == "reply-before-decision-quorum":
        # Under replication the commit targets' counter round rides the
        # piggybacked decision round, so stubbing replication acks the
        # client with neither quorum nor coverage: I1/I2 flag the empty
        # trace immediately.
        return Scope(
            actions=(),
            crash_points=(),
            max_crashes=0,
            backend="counter-async",
            shards=2,
        )
    if name in MUTATIONS:
        return Scope()
    raise ValueError("unknown mutation %r (known: %s)"
                     % (name, ", ".join(sorted(MUTATIONS))))


# -- one run ------------------------------------------------------------------

@dataclass
class RunResult:
    """Everything the explorer needs from one executed trace."""

    trace: List[int]
    points: List[Any]               # ChoicePoint list from the controller
    violations: List[str]
    outcomes: List[str]
    committed: int
    drops: int
    crashes: List[Tuple[int, Tuple[str, str], float]]
    new_states: int
    suppressed: int
    sim_time: float
    liveness_checked: bool
    monitor_summary: Dict[str, Any]
    cluster: Optional[Any] = None   # only when keep_cluster=True

    @property
    def green(self) -> bool:
        return not self.violations


def run_one(scope: Scope, trace=(), *, mutation: Optional[str] = None,
            remaining_budget: int = 0, visited: Optional[Dict] = None,
            sleep0=(), crc_cache: Optional[DiskCrcCache] = None,
            tracing: bool = False, keep_cluster: bool = False) -> RunResult:
    """Execute one choice trace in a fresh world and audit the end state."""
    patch = MUTATIONS[mutation] if mutation else contextlib.nullcontext
    with patch():
        return _run_one(scope, trace, remaining_budget, visited, sleep0,
                        crc_cache, tracing, keep_cluster)


def _run_one(scope, trace, remaining_budget, visited, sleep0, crc_cache,
             tracing, keep_cluster) -> RunResult:
    config = ClusterConfig(
        seed=scope.seed,
        tracing=tracing,
        monitor=True,
        protocol=scope.protocol,
        rollback_backend=scope.backend,
        counter_shards=scope.shards,
        monitor_liveness_timeout_s=scope.liveness_timeout,
        decision_timeout_s=scope.decision_timeout,
    )
    cluster = TreatyCluster(
        profile=TREATY_FULL, config=config, num_nodes=scope.nodes
    ).start()
    sim = cluster.sim
    controller = TraceController(
        cluster, scope, trace,
        remaining_budget=remaining_budget, visited=visited,
        sleep0=sleep0, crc_cache=crc_cache or DiskCrcCache(),
    )
    sim.chooser = controller
    cluster.obs.tracer.subscribe(controller.on_record, [
        ("event", cat, name) for cat, name in scope.crash_points
    ])

    txns = spread_txns(cluster, scope.txns, b"mc")
    outcomes = ["pending"] * len(txns)
    drive_errors: List[Tuple[int, BaseException]] = []
    violations: List[str] = []

    def absorb(index):
        def callback(event):
            if not event.ok:
                event.defuse()
                drive_errors.append((index, event.value))
                if outcomes[index] == "pending":
                    outcomes[index] = "failed"
        return callback

    clients = drive(cluster, txns, outcomes, give_up=scope.give_up)
    for index, client in enumerate(clients):
        client.add_callback(absorb(index))

    monitor = cluster.obs.monitor
    stopped_early = False
    try:
        sim.run(until=sim.now + scope.pre_horizon)
        # Recover every crashed node; crashes can also fire during a
        # recovery round's redrives (bounded by max_crashes), hence the
        # loop.  One extra round bounds total sim time safely below the
        # zombie-fiber horizon (see Scope).
        for _round in range(scope.max_crashes + 1):
            down = [
                i for i in range(cluster.num_nodes)
                if not cluster.nodes[i].is_up
            ]
            if not down:
                break
            if scope.no_restart:
                # Crashed nodes stay dead.  The survivors get one settle
                # window to converge via the completer protocol — decision
                # timeouts fire, a completer drives the group outcome.
                sim.run(until=sim.now + scope.post_horizon)
                break
            for i in down:
                cluster.run(cluster.recover_node(i), name="mc-recover-%d" % i)
            sim.run(until=sim.now + scope.post_horizon)
    except MonitorViolation:
        # The strict monitor already recorded it; the trace up to this
        # instant is the counterexample — no end-state audit needed.
        stopped_early = True
    except Exception as exc:  # noqa: BLE001 - a crashed harness must
        # surface as a (shrinkable) counterexample, not kill the search.
        stopped_early = True
        violations.append("harness: unhandled %s: %s"
                          % (type(exc).__name__, exc))

    controller.freeze()
    monitor.strict = False

    if not stopped_early:
        # Drive-fiber failures: expected when the fiber's coordinator
        # node crashed (zombie sends die at the NIC) or when the network
        # path failed mid-crash; anything else is a real bug.
        crashed_nodes = {victim for victim, _point, _t in controller.crashes}
        for index, error in drive_errors:
            coord = txns[index][0]
            if coord in crashed_nodes:
                continue
            if isinstance(error, (TransactionAborted, NetworkError)):
                continue
            if isinstance(error, MonitorViolation):
                continue  # already recorded by the monitor itself
            violations.append(
                "harness: txn %d on live coordinator node%d died: %s: %s"
                % (index, coord, type(error).__name__, error)
            )

        # Reads run after freeze(), so they are never perturbed or
        # recorded.  Under no_restart a dead node is the fault model, not
        # a violation: the survivors are what must converge.
        dead = [
            i for i, node in enumerate(cluster.nodes) if not node.is_up
        ] if scope.no_restart else ()
        violations.extend(audit(cluster, txns, outcomes,
                                dropped=controller.drops > 0, dead=dead))

    violations.extend(
        v for v in monitor.violations if v not in violations
    )

    result = RunResult(
        trace=list(trace),
        points=controller.points,
        violations=violations,
        outcomes=outcomes,
        committed=sum(1 for o in outcomes if o == "committed"),
        drops=controller.drops,
        crashes=list(controller.crashes),
        new_states=controller.new_states,
        suppressed=controller.suppressed,
        sim_time=sim.now,
        liveness_checked=(not stopped_early and controller.drops == 0),
        monitor_summary=monitor.summary(),
        cluster=cluster if keep_cluster else None,
    )
    return result
