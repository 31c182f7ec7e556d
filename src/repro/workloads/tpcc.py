"""TPC-C benchmark over Treaty's transactional KV API (§VIII-A).

Implements all five TPC-C transaction profiles (New-Order, Payment,
Order-Status, Delivery, Stock-Level) with the standard 45/43/4/4/4 mix,
the standard remote-access rates (1 % remote stock lines, 15 % remote
payments) and the 1 % intentionally-aborted New-Orders, over a
relational-to-KV encoding with warehouse-based partitioning — the usual
way distributed KV stores run TPC-C.

Scaling: the paper runs 10 and 100 warehouses with the full 100 k-item
catalog.  A discrete-event simulation cannot hold 1 M stock rows per
run, so the catalog and customer population are scaled down by a
constant factor (defaults below).  Contention *structure* is preserved:
the district ``next_o_id`` counter remains the hot row that makes 10
warehouses write-contended, and scaling warehouses up (10 → 100) still
spreads that contention out, which is the effect Figure 3 measures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Generator, List, Tuple

from ..core.cluster import TreatyCluster
from ..errors import TransactionAborted
from ..sim.core import Event
from ..sim.rng import SeededRng
from .ycsb import MAX_RETRIES

__all__ = [
    "TpccScale",
    "tpcc_partitioner",
    "load_tpcc",
    "run_tpcc",
    "TpccTerminal",
    "MIX",
]

Gen = Generator[Event, Any, Any]

#: standard transaction mix (cumulative probabilities).
MIX = [
    ("new_order", 0.45),
    ("payment", 0.88),
    ("order_status", 0.92),
    ("delivery", 0.96),
    ("stock_level", 1.00),
]

_SYLLABLES = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
]


def last_name(number: int) -> bytes:
    """Standard TPC-C last-name generation from a 3-digit number."""
    return (
        _SYLLABLES[(number // 100) % 10]
        + _SYLLABLES[(number // 10) % 10]
        + _SYLLABLES[number % 10]
    ).encode()


@dataclass(frozen=True)
class TpccScale:
    """Scaled-down TPC-C population (see module docstring)."""

    warehouses: int = 10
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    items: int = 200
    initial_orders_per_district: int = 5


# --- key encoding -----------------------------------------------------------


def warehouse_key(w: int) -> bytes:
    return b"w/%04d" % w


def district_key(w: int, d: int) -> bytes:
    return b"d/%04d/%02d" % (w, d)


def customer_key(w: int, d: int, c: int) -> bytes:
    return b"c/%04d/%02d/%04d" % (w, d, c)


def customer_index_key(w: int, d: int, lastname: bytes, c: int) -> bytes:
    return b"ci/%04d/%02d/%s/%04d" % (w, d, lastname, c)


def stock_key(w: int, i: int) -> bytes:
    return b"s/%04d/%06d" % (w, i)


def item_key(i: int) -> bytes:
    return b"i/%06d" % i


def order_key(w: int, d: int, o: int) -> bytes:
    return b"o/%04d/%02d/%08d" % (w, d, o)


def new_order_key(w: int, d: int, o: int) -> bytes:
    return b"no/%04d/%02d/%08d" % (w, d, o)


def order_line_key(w: int, d: int, o: int, line: int) -> bytes:
    return b"ol/%04d/%02d/%08d/%02d" % (w, d, o, line)


def customer_last_order_key(w: int, d: int, c: int) -> bytes:
    return b"co/%04d/%02d/%04d" % (w, d, c)


def history_key(w: int, d: int, unique: bytes) -> bytes:
    return b"h/%04d/%02d/%s" % (w, d, unique)


def tpcc_partitioner(num_nodes: int):
    """Warehouse-based sharding; the read-only item catalog is hashed."""
    import zlib

    def partition(key: bytes) -> int:
        parts = key.split(b"/")
        if parts[0] == b"i":
            return zlib.crc32(key) % num_nodes
        return int(parts[1]) % num_nodes

    return partition


# --- row codecs (money in integer cents, timestamps in integer µs) ------------

_WAREHOUSE = struct.Struct("<q")  # ytd
_DISTRICT = struct.Struct("<qqi")  # next_o_id, ytd, tax basis points
_CUSTOMER = struct.Struct("<qqii")  # balance, ytd_payment, payment_cnt, delivery_cnt
_STOCK = struct.Struct("<iqii")  # quantity, ytd, order_cnt, remote_cnt
_ITEM = struct.Struct("<q")  # price
_ORDER = struct.Struct("<iqii")  # c_id, entry_us, carrier_id, ol_cnt
_ORDER_LINE = struct.Struct("<iiiqq")  # i_id, supply_w, qty, amount, delivery_us


@dataclass
class WarehouseRow:
    ytd: int = 0

    def encode(self) -> bytes:
        return _WAREHOUSE.pack(self.ytd)

    @classmethod
    def decode(cls, data: bytes) -> "WarehouseRow":
        return cls(*_WAREHOUSE.unpack(data))


@dataclass
class DistrictRow:
    next_o_id: int = 1
    ytd: int = 0
    tax_bp: int = 1000  # 10.00 %

    def encode(self) -> bytes:
        return _DISTRICT.pack(self.next_o_id, self.ytd, self.tax_bp)

    @classmethod
    def decode(cls, data: bytes) -> "DistrictRow":
        return cls(*_DISTRICT.unpack(data))


@dataclass
class CustomerRow:
    balance: int = -1000  # -10.00 per spec
    ytd_payment: int = 1000
    payment_cnt: int = 1
    delivery_cnt: int = 0
    lastname: bytes = b""

    def encode(self) -> bytes:
        return (
            _CUSTOMER.pack(
                self.balance, self.ytd_payment, self.payment_cnt, self.delivery_cnt
            )
            + self.lastname
        )

    @classmethod
    def decode(cls, data: bytes) -> "CustomerRow":
        fields = _CUSTOMER.unpack(data[: _CUSTOMER.size])
        return cls(*fields, lastname=data[_CUSTOMER.size :])


@dataclass
class StockRow:
    quantity: int = 50
    ytd: int = 0
    order_cnt: int = 0
    remote_cnt: int = 0

    def encode(self) -> bytes:
        return _STOCK.pack(self.quantity, self.ytd, self.order_cnt, self.remote_cnt)

    @classmethod
    def decode(cls, data: bytes) -> "StockRow":
        return cls(*_STOCK.unpack(data))


@dataclass
class ItemRow:
    price: int = 100

    def encode(self) -> bytes:
        return _ITEM.pack(self.price)

    @classmethod
    def decode(cls, data: bytes) -> "ItemRow":
        return cls(*_ITEM.unpack(data))


@dataclass
class OrderRow:
    c_id: int = 0
    entry_us: int = 0
    carrier_id: int = 0  # 0 = not delivered
    ol_cnt: int = 0

    def encode(self) -> bytes:
        return _ORDER.pack(self.c_id, self.entry_us, self.carrier_id, self.ol_cnt)

    @classmethod
    def decode(cls, data: bytes) -> "OrderRow":
        return cls(*_ORDER.unpack(data))


@dataclass
class OrderLineRow:
    i_id: int = 0
    supply_w: int = 0
    qty: int = 0
    amount: int = 0
    delivery_us: int = 0

    def encode(self) -> bytes:
        return _ORDER_LINE.pack(
            self.i_id, self.supply_w, self.qty, self.amount, self.delivery_us
        )

    @classmethod
    def decode(cls, data: bytes) -> "OrderLineRow":
        return cls(*_ORDER_LINE.unpack(data))


# --- initial population --------------------------------------------------------


def initial_rows(scale: TpccScale) -> List[Tuple[bytes, bytes]]:
    """Every row of the initial database, as (key, value) pairs."""
    rows: List[Tuple[bytes, bytes]] = []
    for i in range(1, scale.items + 1):
        rows.append((item_key(i), ItemRow(price=100 + (i % 900)).encode()))
    for w in range(1, scale.warehouses + 1):
        rows.append((warehouse_key(w), WarehouseRow().encode()))
        for i in range(1, scale.items + 1):
            rows.append((stock_key(w, i), StockRow(quantity=50 + i % 50).encode()))
        for d in range(1, scale.districts_per_warehouse + 1):
            rows.append(
                (
                    district_key(w, d),
                    DistrictRow(
                        next_o_id=scale.initial_orders_per_district + 1
                    ).encode(),
                )
            )
            for c in range(1, scale.customers_per_district + 1):
                name = last_name(c % 1000)
                rows.append(
                    (customer_key(w, d, c), CustomerRow(lastname=name).encode())
                )
                rows.append((customer_index_key(w, d, name, c), b"%d" % c))
            for o in range(1, scale.initial_orders_per_district + 1):
                c = (o % scale.customers_per_district) + 1
                rows.append(
                    (
                        order_key(w, d, o),
                        OrderRow(c_id=c, carrier_id=1, ol_cnt=5).encode(),
                    )
                )
                rows.append((customer_last_order_key(w, d, c), b"%d" % o))
                for line in range(1, 6):
                    rows.append(
                        (
                            order_line_key(w, d, o, line),
                            OrderLineRow(
                                i_id=(o * 7 + line) % scale.items + 1,
                                supply_w=w,
                                qty=5,
                                amount=500,
                                delivery_us=1,
                            ).encode(),
                        )
                    )
    return rows


def load_tpcc(cluster: TreatyCluster, scale: TpccScale) -> Gen:
    """Bulk-load the initial database directly through the engines."""
    per_node: List[List[Tuple[bytes, bytes]]] = [[] for _ in cluster.nodes]
    for key, value in initial_rows(scale):
        per_node[cluster.partitioner(key)].append((key, value))
    for node, pairs in zip(cluster.nodes, per_node):
        engine = node.engine
        chunk = 500
        for start in range(0, len(pairs), chunk):
            batch = [
                (key, value, engine.next_seq())
                for key, value in pairs[start : start + chunk]
            ]
            yield from engine.log_commit(b"tpcc-load", batch)
            yield from engine.apply_writes(batch)


# --- the five transactions ---------------------------------------------------


class TpccTerminal:
    """One TPC-C terminal bound to a home warehouse.

    ``optimistic`` opens every transaction as an OCC transaction
    (Figure 7) instead of a locking one.
    """

    def __init__(self, session, scale: TpccScale, home_w: int, rng: SeededRng,
                 optimistic: bool = False):
        self.session = session
        self.scale = scale
        self.home_w = home_w
        self.rng = rng
        self.optimistic = optimistic
        self._history_seq = 0
        self.per_type_commits = {name: 0 for name, _ in MIX}

    # -- helpers ------------------------------------------------------------
    def _rand_district(self) -> int:
        return self.rng.randint(1, self.scale.districts_per_warehouse)

    def _rand_customer(self) -> int:
        return self.rng.randint(1, self.scale.customers_per_district)

    def _rand_item(self) -> int:
        return self.rng.randint(1, self.scale.items)

    def choose_type(self) -> str:
        roll = self.rng.random()
        for name, cumulative in MIX:
            if roll <= cumulative:
                return name
        return MIX[-1][0]

    def execute(self, txn_type: str) -> Gen:
        handler = getattr(self, txn_type)
        committed = yield from handler()
        if committed:
            self.per_type_commits[txn_type] += 1
        return committed

    # -- New-Order (45 %) ------------------------------------------------------
    def new_order(self) -> Gen:
        w, scale = self.home_w, self.scale
        d = self._rand_district()
        c = self._rand_customer()
        ol_cnt = self.rng.randint(5, 15)
        invalid = self.rng.random() < 0.01  # 1 % rolled back per spec
        txn = self.session.begin(optimistic=self.optimistic)
        # District: read + increment the (hot) next_o_id counter.
        district = DistrictRow.decode((yield from txn.get(district_key(w, d))))
        o_id = district.next_o_id
        district.next_o_id += 1
        yield from txn.put(district_key(w, d), district.encode())
        yield from txn.get(customer_key(w, d, c))
        total = 0
        for line in range(1, ol_cnt + 1):
            i_id = self._rand_item()
            # 1 % of lines are supplied by a remote warehouse.
            supply_w = w
            if scale.warehouses > 1 and self.rng.random() < 0.01:
                supply_w = self.rng.choice(
                    [x for x in range(1, scale.warehouses + 1) if x != w]
                )
            item_value = yield from txn.get(item_key(i_id))
            if item_value is None or (invalid and line == ol_cnt):
                yield from txn.rollback()
                return False
            item = ItemRow.decode(item_value)
            stock = StockRow.decode((yield from txn.get(stock_key(supply_w, i_id))))
            qty = self.rng.randint(1, 10)
            if stock.quantity >= qty + 10:
                stock.quantity -= qty
            else:
                stock.quantity = stock.quantity - qty + 91
            stock.ytd += qty
            stock.order_cnt += 1
            if supply_w != w:
                stock.remote_cnt += 1
            yield from txn.put(stock_key(supply_w, i_id), stock.encode())
            amount = qty * item.price
            total += amount
            yield from txn.put(
                order_line_key(w, d, o_id, line),
                OrderLineRow(i_id, supply_w, qty, amount, 0).encode(),
            )
        entry_us = int(self.session.machine.sim.now * 1e6)
        yield from txn.put(
            order_key(w, d, o_id), OrderRow(c, entry_us, 0, ol_cnt).encode()
        )
        yield from txn.put(new_order_key(w, d, o_id), b"1")
        yield from txn.put(customer_last_order_key(w, d, c), b"%d" % o_id)
        yield from txn.commit()
        return True

    # -- Payment (43 %) ----------------------------------------------------------
    def payment(self) -> Gen:
        w, scale = self.home_w, self.scale
        d = self._rand_district()
        # 15 % of payments are for a customer of a remote warehouse.
        c_w, c_d = w, d
        if scale.warehouses > 1 and self.rng.random() < 0.15:
            c_w = self.rng.choice(
                [x for x in range(1, scale.warehouses + 1) if x != w]
            )
            c_d = self._rand_district()
        amount = self.rng.randint(100, 500000)
        txn = self.session.begin(optimistic=self.optimistic)
        warehouse = WarehouseRow.decode((yield from txn.get(warehouse_key(w))))
        warehouse.ytd += amount
        yield from txn.put(warehouse_key(w), warehouse.encode())
        district = DistrictRow.decode((yield from txn.get(district_key(w, d))))
        district.ytd += amount
        yield from txn.put(district_key(w, d), district.encode())
        # 60 % select the customer by last name, 40 % by id.
        if self.rng.random() < 0.60:
            name = last_name(self._rand_customer() % 1000)
            prefix = b"ci/%04d/%02d/%s/" % (c_w, c_d, name)
            matches = yield from txn.scan(prefix, prefix + b"\xff")
            if not matches:
                c = self._rand_customer()
            else:
                c = int(matches[len(matches) // 2][1])  # middle match per spec
        else:
            c = self._rand_customer()
        customer = CustomerRow.decode(
            (yield from txn.get(customer_key(c_w, c_d, c)))
        )
        customer.balance -= amount
        customer.ytd_payment += amount
        customer.payment_cnt += 1
        yield from txn.put(customer_key(c_w, c_d, c), customer.encode())
        self._history_seq += 1
        unique = b"%d-%d" % (self.session.client_id, self._history_seq)
        yield from txn.put(history_key(w, d, unique), b"%d" % amount)
        yield from txn.commit()
        return True

    # -- Order-Status (4 %) ----------------------------------------------------------
    def order_status(self) -> Gen:
        w = self.home_w
        d = self._rand_district()
        c = self._rand_customer()
        txn = self.session.begin(optimistic=self.optimistic)
        yield from txn.get(customer_key(w, d, c))
        last_order = yield from txn.get(customer_last_order_key(w, d, c))
        if last_order is not None:
            o_id = int(last_order)
            yield from txn.get(order_key(w, d, o_id))
            prefix = b"ol/%04d/%02d/%08d/" % (w, d, o_id)
            yield from txn.scan(prefix, prefix + b"\xff")
        yield from txn.commit()
        return True

    # -- Delivery (4 %) ---------------------------------------------------------------
    def delivery(self) -> Gen:
        w = self.home_w
        carrier = self.rng.randint(1, 10)
        now_us = int(self.session.machine.sim.now * 1e6)
        txn = self.session.begin(optimistic=self.optimistic)
        for d in range(1, self.scale.districts_per_warehouse + 1):
            prefix = b"no/%04d/%02d/" % (w, d)
            oldest = yield from txn.scan(prefix, prefix + b"\xff", limit=1)
            if not oldest:
                continue
            no_key = oldest[0][0]
            o_id = int(no_key.rsplit(b"/", 1)[1])
            yield from txn.delete(no_key)
            order = OrderRow.decode((yield from txn.get(order_key(w, d, o_id))))
            order.carrier_id = carrier
            yield from txn.put(order_key(w, d, o_id), order.encode())
            ol_prefix = b"ol/%04d/%02d/%08d/" % (w, d, o_id)
            lines = yield from txn.scan(ol_prefix, ol_prefix + b"\xff")
            total = 0
            for line_key, line_value in lines:
                line = OrderLineRow.decode(line_value)
                total += line.amount
                line.delivery_us = now_us
                yield from txn.put(line_key, line.encode())
            customer = CustomerRow.decode(
                (yield from txn.get(customer_key(w, d, order.c_id)))
            )
            customer.balance += total
            customer.delivery_cnt += 1
            yield from txn.put(customer_key(w, d, order.c_id), customer.encode())
        yield from txn.commit()
        return True

    # -- Stock-Level (4 %) ----------------------------------------------------------------
    def stock_level(self) -> Gen:
        w = self.home_w
        d = self._rand_district()
        threshold = self.rng.randint(10, 20)
        txn = self.session.begin(optimistic=self.optimistic)
        district = DistrictRow.decode((yield from txn.get(district_key(w, d))))
        newest = district.next_o_id - 1
        oldest = max(1, newest - 19)  # the last 20 orders
        start = b"ol/%04d/%02d/%08d/" % (w, d, oldest)
        end = b"ol/%04d/%02d/%08d/" % (w, d, newest + 1)
        lines = yield from txn.scan(start, end)
        item_ids = {OrderLineRow.decode(value).i_id for _key, value in lines}
        low = 0
        for i_id in sorted(item_ids):
            stock = StockRow.decode((yield from txn.get(stock_key(w, i_id))))
            if stock.quantity < threshold:
                low += 1
        yield from txn.commit()
        return low >= 0


def run_tpcc(
    cluster: TreatyCluster,
    scale: TpccScale,
    metrics,
    num_clients: int = 10,
    duration: float = 5.0,
    warmup: float = 0.5,
    optimistic: bool = False,
) -> None:
    """Run closed-loop TPC-C terminals for ``duration`` simulated seconds.

    ``optimistic`` runs every terminal's transactions under OCC.
    """
    machines = [cluster.client_machine() for _ in range(3)]
    sim = cluster.sim
    end_time = sim.now + warmup + duration
    metrics.measure_from(sim.now + warmup)
    # The OCC terminals keep their own rng stream, so Figure 7's numbers
    # are those of the driver this option replaced.
    label = "tpcc-occ" if optimistic else "tpcc-terminal"

    def terminal_loop(index: int):
        machine = machines[index % len(machines)]
        home_w = (index % scale.warehouses) + 1
        coordinator = (home_w - 1) % cluster.num_nodes
        session = cluster.session(machine, coordinator=coordinator)
        rng = SeededRng(cluster.config.seed, label, str(index))
        terminal = TpccTerminal(session, scale, home_w, rng, optimistic)
        while sim.now < end_time:
            txn_type = terminal.choose_type()
            started = sim.now
            committed = False
            for _attempt in range(MAX_RETRIES + 1):
                try:
                    committed = yield from terminal.execute(txn_type)
                    break
                except TransactionAborted:
                    continue
            if committed:
                metrics.record(started, sim.now)
            else:
                metrics.record_abort(started)

    for i in range(num_clients):
        sim.spawn(terminal_loop(i), name="%s-%d" % (label, i))
    sim.run(until=end_time)
    metrics.finish(sim.now)
