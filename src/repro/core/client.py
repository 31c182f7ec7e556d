"""Client access layer.

"Clients communicate with the system through a mutually authenticated
channel" (§IV-A) over a secondary 1 Gb/s NIC (§VIII-A).  A
:class:`ClientMachine` models one workload-generator host; its
:class:`ClientSession`\\ s speak Treaty's standard transactional API
(``BEGINTXN`` / ``TXNGET`` / ``TXNPUT`` / ``TXNCOMMIT`` /
``TXNROLLBACK``) against a chosen coordinator node.  The node-side
:class:`FrontEnd` executes each operation through the coordinator's
global transactions, optimistic ones (distributed OCC) when requested.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..config import ClusterConfig, EnvProfile, Runtime
from ..crypto.keys import KeyRing
from ..errors import (
    CoordinatorUnreachable,
    NetworkError,
    TransactionAborted,
    TransactionError,
)
from ..net.erpc import ErpcEndpoint
from ..net.message import MsgType, TxMessage
from ..net.secure_rpc import SecureRpc
from ..net.simnet import Fabric
from ..sim.core import Event, Simulator
from ..storage.format import Reader, Writer
from ..tee.runtime import NodeRuntime
from .twopc.codec import (
    decode_scan_reply,
    decode_scan_request,
    decode_value_reply,
    encode_scan_reply,
    encode_scan_request,
    encode_value_reply,
)
from .twopc.steps import RESOLUTION_RETRY_INTERVAL

__all__ = ["ClientMachine", "ClientSession", "ClientTxn", "FrontEnd"]

Gen = Generator[Event, Any, Any]

_OP_GET = 1
_OP_PUT = 2
_OP_DELETE = 3
_OP_COMMIT = 4
_OP_ROLLBACK = 5
_OP_SCAN = 6
#: completer-driven redirect: "how did global transaction <key> end?"
#: Answered from the node's applied-outcome record without opening a
#: transaction; the client polls survivors when its coordinator dies
#: mid-commit.
_OP_STATUS = 7

_FLAG_OPTIMISTIC = 1
#: coordinator-free snapshot reads.
_FLAG_READONLY = 2

#: outcome codes in ``_OP_STATUS`` replies.
_STATUS_UNKNOWN = 0
_STATUS_COMMITTED = 1
_STATUS_ABORTED = 2


def _encode_op(kind: int, flags: int, key: bytes = b"", value: bytes = b"") -> bytes:
    return Writer().u32(kind).u32(flags).blob(key).blob(value).getvalue()


def _decode_op(body: bytes) -> Tuple[int, int, bytes, bytes]:
    reader = Reader(body)
    return reader.u32(), reader.u32(), reader.blob(), reader.blob()


class FrontEnd:
    """Node-side handler for client requests (runs inside the enclave)."""

    def __init__(
        self,
        runtime: NodeRuntime,
        coordinator,
        manager,
        rpc: SecureRpc,
        participant,
    ):
        self.runtime = runtime
        self.coordinator = coordinator
        self.manager = manager
        #: the node's Participant role — answers ``_OP_STATUS`` probes
        #: from its applied-outcome record (completer-driven redirect).
        self.participant = participant
        #: open transactions keyed by (client numeric id, client txn seq).
        self.open_txns: Dict[Tuple[int, int], Any] = {}
        self.requests = 0
        rpc.register(MsgType.CLIENT_REQUEST, self._on_request)

    def _txn_for(self, message: TxMessage, flags: int):
        key = (message.node_id, message.txn_id)
        txn = self.open_txns.get(key)
        if txn is None:
            if flags & _FLAG_READONLY:
                # Coordinator-free snapshot read: this node serves (and
                # later certifies) only its own slice of the read-set.
                txn = self.manager.begin_readonly()
            else:
                txn = self.coordinator.begin(
                    optimistic=bool(flags & _FLAG_OPTIMISTIC)
                )
            self.open_txns[key] = txn
        return txn

    def _on_request(self, message: TxMessage, src: str) -> Gen:
        self.requests += 1
        # Waking the (idle) per-client fiber costs a SCONE scheduler
        # dispatch when the enclave is under storage-engine pressure.
        if self.runtime.in_enclave and self.runtime.heavy_enclave:
            yield self.runtime.sim.sleep(
                self.runtime.costs.scone_request_dispatch
            )
        self.runtime.active_requests += 1
        try:
            result = yield from self._handle(message)
        finally:
            self.runtime.active_requests -= 1
        return result

    def _handle(self, message: TxMessage) -> Gen:
        kind, flags, key, value = _decode_op(message.body)
        session = (message.node_id, message.txn_id)

        if kind == _OP_STATUS:
            # No transaction: answer from the node's applied-outcome
            # record.  Only an *applied* outcome is reported — a lone
            # ledger slot can still be superseded by a completer race,
            # an applied one is final (appliers verify quorum first).
            yield from self.runtime.op_overhead()
            outcome = self.participant.applied.get(key, _STATUS_UNKNOWN)
            return message.reply(
                MsgType.CLIENT_REPLY,
                Writer().blob(Writer().u32(outcome).getvalue())
                .blob(b"").getvalue(),
            )

        txn = self._txn_for(message, flags)
        # Success replies wrap the op body with the server-side global
        # transaction id (empty for purely local transactions): the
        # client caches it and can ask *any* surviving node how the
        # transaction ended if this coordinator dies mid-commit.
        gid_bytes = txn.gid.encode() if hasattr(txn, "gid") else b""

        def reply(body: bytes = b"") -> TxMessage:
            return message.reply(
                MsgType.CLIENT_REPLY,
                Writer().blob(body).blob(gid_bytes).getvalue(),
            )

        try:
            if kind == _OP_GET:
                result = yield from txn.get(key)
                return reply(encode_value_reply(result))
            if kind == _OP_PUT:
                yield from txn.put(key, value)
                return reply()
            if kind == _OP_DELETE:
                yield from txn.delete(key)
                return reply()
            if kind == _OP_SCAN:
                start, end, limit = decode_scan_request(value)
                rows = yield from txn.scan(start, end, limit)
                return reply(encode_scan_reply(rows))
            if kind == _OP_COMMIT:
                self.open_txns.pop(session, None)
                yield from txn.commit()
                return reply()
            if kind == _OP_ROLLBACK:
                self.open_txns.pop(session, None)
                yield from txn.rollback()
                return reply()
        except TransactionAborted as aborted:
            self.open_txns.pop(session, None)
            return message.reply(MsgType.FAIL, str(aborted).encode())
        return message.reply(MsgType.FAIL, b"unknown operation")


def client_profile(cluster_profile: EnvProfile) -> EnvProfile:
    """Clients run natively but must match the cluster's wire encryption."""
    return replace(
        cluster_profile,
        name="client(%s)" % cluster_profile.name,
        runtime=Runtime.NATIVE,
        stabilization=False,
    )


class ClientMachine:
    """One workload-generator host on the client (1 GbE) network."""

    _ids = itertools.count(1000)  # numeric ids disjoint from node ids

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        name: str,
        cluster_profile: EnvProfile,
        config: ClusterConfig,
        keyring: KeyRing,
    ):
        self.sim = sim
        self.name = name
        self.config = config
        self.runtime = NodeRuntime(sim, client_profile(cluster_profile), config)
        self.nic = fabric.attach(
            name, config.costs.client_bandwidth, config.costs.client_propagation
        )
        self.endpoint = ErpcEndpoint(self.runtime, fabric, self.nic)
        self.numeric_id = next(self._ids)
        self.rpc = SecureRpc(self.runtime, self.endpoint, keyring, self.numeric_id)
        self._session_seq = itertools.count(1)

    def session(
        self,
        coordinator_address: str,
        routes: Optional[List[str]] = None,
        partitioner: Optional[Callable[[bytes], int]] = None,
    ) -> "ClientSession":
        """Open a session against one coordinator node.

        ``routes`` lists every node's front address in partition order.
        Given ``routes`` and ``partitioner``, read-only transactions
        route each operation directly to the key's owner
        (coordinator-free snapshot reads); routes are also polled for
        transaction outcomes when the coordinator dies mid-commit
        (completer-driven redirect).
        """
        return ClientSession(
            self,
            coordinator_address,
            next(ClientMachine._ids),
            routes=routes,
            partitioner=partitioner,
        )


class ClientSession:
    """One client connection: issues transactions to its coordinator."""

    def __init__(
        self,
        machine: ClientMachine,
        coordinator: str,
        client_id: int,
        routes: Optional[List[str]] = None,
        partitioner: Optional[Callable[[bytes], int]] = None,
    ):
        self.machine = machine
        self.coordinator = coordinator
        self.client_id = client_id
        self.routes = routes
        self.partitioner = partitioner
        #: whether read-only transactions route each read to the key's
        #: owner (coordinator-free snapshot reads).
        self.snapshot_reads = routes is not None and partitioner is not None
        self._txn_seq = itertools.count(1)
        self.committed = 0
        self.aborted = 0
        #: commits whose outcome was learned from a survivor after the
        #: coordinator died (completer-driven redirect).
        self.redirected = 0

    def begin(
        self, optimistic: bool = False, read_only: bool = False
    ) -> "ClientTxn":
        """BEGINTXN (purely client-local until the first operation)."""
        return ClientTxn(self, next(self._txn_seq), optimistic, read_only)

    def owner_address(self, key: bytes) -> str:
        """The front address owning ``key`` (snapshot-read routing)."""
        assert self.routes is not None and self.partitioner is not None
        return self.routes[self.partitioner(key)]


class ClientTxn:
    """Client-side handle of one transaction."""

    def __init__(
        self,
        session: ClientSession,
        txn_seq: int,
        optimistic: bool,
        read_only: bool = False,
    ):
        self.session = session
        self.txn_seq = txn_seq
        self.read_only = read_only
        self.flags = _FLAG_OPTIMISTIC if optimistic else 0
        #: whether reads bypass the coordinator (snapshot routing).  Only
        #: routed sessions use per-node snapshot slices: an unrouted
        #: read-only transaction goes through the normal coordinator
        #: path (a coordinator-local snapshot could not see other
        #: shards).
        self._routed = read_only and session.snapshot_reads
        if self._routed:
            self.flags |= _FLAG_READONLY
        self._op_seq = itertools.count(1)
        #: server-side global transaction id, learned from the first
        #: coordinator reply; lets the client ask survivors how the
        #: transaction ended if the coordinator dies mid-commit.
        self.gid: bytes = b""
        #: front addresses this (read-only) transaction touched, in
        #: first-contact order — each holds one per-node snapshot slice
        #: that commit must certify.
        self._contacted: List[str] = []

    def _request(
        self,
        kind: int,
        key: bytes = b"",
        value: bytes = b"",
        to: Optional[str] = None,
    ) -> Gen:
        machine = self.session.machine
        address = to or self.session.coordinator
        message = TxMessage(
            MsgType.CLIENT_REQUEST,
            self.session.client_id,
            self.txn_seq,
            next(self._op_seq),
            _encode_op(kind, self.flags, key, value),
        )
        try:
            reply = yield from machine.rpc.call(address, message)
        except NetworkError as exc:
            # The node crashed mid-request (fail-fast on NIC detach):
            # surface it as an abort so closed-loop workloads move on
            # instead of hanging on a dead continuation.
            self.session.aborted += 1
            raise CoordinatorUnreachable("coordinator unreachable: %s" % exc)
        if reply.msg_type == MsgType.FAIL:
            self.session.aborted += 1
            raise TransactionAborted(reply.body.decode() or "aborted")
        reader = Reader(reply.body)
        body = reader.blob()
        gid = reader.blob()
        if gid:
            self.gid = gid
        return body

    def _read_target(self, key: bytes) -> Optional[str]:
        """Destination for a read: the owner when routing, else None."""
        if not self._routed:
            return None
        address = self.session.owner_address(key)
        if address not in self._contacted:
            self._contacted.append(address)
        return address

    def get(self, key: bytes) -> Gen:
        body = yield from self._request(
            _OP_GET, key, to=self._read_target(key)
        )
        return decode_value_reply(body)

    def put(self, key: bytes, value: bytes) -> Gen:
        if self.read_only:
            raise TransactionError("read-only transaction cannot write")
        yield from self._request(_OP_PUT, key, value)

    def delete(self, key: bytes) -> Gen:
        if self.read_only:
            raise TransactionError("read-only transaction cannot write")
        yield from self._request(_OP_DELETE, key)

    def scan(self, start: bytes, end=None, limit=None) -> Gen:
        """Range scan ``[start, end)``; returns ``[(key, value)]``.

        Under snapshot routing the range may span shards, so the scan
        fans out to every node and merges (scans are read-committed in
        all transaction flavours — the documented relaxation).
        """
        request = encode_scan_request(start, end, limit)
        if not self._routed:
            body = yield from self._request(_OP_SCAN, value=request)
            return decode_scan_reply(body)
        merged = []
        for address in list(self.session.routes or []):
            if address not in self._contacted:
                self._contacted.append(address)
            body = yield from self._request(_OP_SCAN, value=request, to=address)
            merged.extend(decode_scan_reply(body))
        merged.sort(key=lambda row: row[0])
        if limit is not None:
            merged = merged[:limit]
        return merged

    def commit(self) -> Gen:
        if self._routed:
            yield from self._commit_readonly()
            self.session.committed += 1
            return
        try:
            yield from self._request(_OP_COMMIT)
        except CoordinatorUnreachable:
            if self.gid and self.session.routes:
                outcome = yield from self._learn_outcome()
                if outcome == _STATUS_COMMITTED:
                    # Compensate the abort _request charged for the
                    # dead coordinator: the transaction DID commit.
                    self.session.aborted -= 1
                    self.session.committed += 1
                    self.session.redirected += 1
                    return
            raise
        self.session.committed += 1

    def _commit_readonly(self) -> Gen:
        """Certify each contacted node's snapshot slice.

        Every slice commits iff its reads are still current and covered
        by the stabilized frontier; one stale slice aborts the whole
        transaction (remaining slices are rolled back client-side).
        """
        contacted = list(self._contacted)
        for index, address in enumerate(contacted):
            try:
                yield from self._request(_OP_COMMIT, to=address)
            except TransactionAborted:
                for rest in contacted[index + 1 :]:
                    try:
                        yield from self._request(_OP_ROLLBACK, to=rest)
                    except TransactionAborted:  # pragma: no cover
                        pass
                raise

    def _learn_outcome(self) -> Gen:
        """Poll surviving nodes for the dead coordinator's decision.

        A completer replicates and applies the outcome within the
        decision timeout, so a bounded poll of the survivors' applied
        records answers "did my commit land?" without the coordinator.
        A survivor silent for ``RESOLUTION_RETRY_INTERVAL`` is skipped.
        """
        machine = self.session.machine
        sim = machine.sim
        survivors = [
            address
            for address in (self.session.routes or [])
            if address != self.session.coordinator
        ]
        deadline = sim.now + machine.config.decision_timeout_s + 5.0
        while True:
            for address in survivors:
                message = TxMessage(
                    MsgType.CLIENT_REQUEST,
                    self.session.client_id,
                    self.txn_seq,
                    next(self._op_seq),
                    _encode_op(_OP_STATUS, 0, self.gid),
                )
                try:
                    reply = yield from machine.rpc.call(
                        address, message, timeout=RESOLUTION_RETRY_INTERVAL
                    )
                except NetworkError:
                    continue  # down too, or silent: try the next
                if reply.msg_type != MsgType.CLIENT_REPLY:
                    continue
                outcome = Reader(Reader(reply.body).blob()).u32()
                if outcome != _STATUS_UNKNOWN:
                    return outcome
            if sim.now >= deadline:
                return _STATUS_UNKNOWN
            yield sim.sleep(RESOLUTION_RETRY_INTERVAL)

    def rollback(self) -> Gen:
        if self._routed:
            for address in list(self._contacted):
                try:
                    yield from self._request(_OP_ROLLBACK, to=address)
                except TransactionAborted:  # pragma: no cover
                    pass
            return
        yield from self._request(_OP_ROLLBACK)
