"""Transport-layer processing models (UDP/TCP, kernel or VMA bypass).

A :class:`NetworkStack` charges per-message CPU costs — calibrated per
platform in :mod:`repro.config` — on the core pool that runs the stack.
The paper's observation that ARM cores pay heavily for kernel system
calls, and that the VMA user-level library recovers a 4x factor
(§5.1.1), is entirely captured by which :class:`~repro.config.StackProfile`
is plugged in.

TCP connections are explicit: clients perform a handshake (1.5 RTT plus
server-side accept cost) before sending, segments carry sequence
numbers, and both sides validate ordering — enough state to make the
TCP-vs-UDP cost asymmetry and the connection-scaling arguments of the
paper real, without modelling retransmission.
"""

from itertools import count

from ..errors import NetworkError
from .. import telemetry
from .packet import Message, TCP, UDP

# Debug identity for connection repr, not a metric.
_conn_ids = count(1)  # lint: allow-global-counter


class TcpConnection:
    """State shared by the two ends of an established TCP connection."""

    __slots__ = ("conn_id", "client", "server", "established",
                 "client_seq", "server_seq", "client_delivered",
                 "server_delivered")

    def __init__(self, client, server):
        self.conn_id = next(_conn_ids)
        self.client = client
        self.server = server
        self.established = False
        self.client_seq = 0
        self.server_seq = 0
        self.client_delivered = 0
        self.server_delivered = 0

    def next_seq(self, sender_addr):
        """Allocate the next sequence number for the sending side."""
        if sender_addr == self.client:
            self.client_seq += 1
            return self.client_seq
        self.server_seq += 1
        return self.server_seq

    def deliver(self, msg):
        """Validate in-order delivery at the receiving side."""
        seq = msg.meta.get("tcp_seq")
        if seq is None:
            raise NetworkError("TCP segment without sequence number")
        if msg.src == self.client:
            expected = self.client_delivered + 1
            self.client_delivered = seq
        else:
            expected = self.server_delivered + 1
            self.server_delivered = seq
        if seq != expected:
            raise NetworkError(
                "out-of-order TCP delivery on conn %d: got %d, expected %d"
                % (self.conn_id, seq, expected))


class NetworkStack:
    """Transport processing bound to a platform core pool."""

    def __init__(self, env, pool, profile, name=None):
        self.env = env
        self.pool = pool
        self.profile = profile
        self.name = name or profile.name
        self._listening = set()
        # Stack hops emit on the environment tracer with the Channel
        # layer's uniform (time, channel, event, msg_id, detail) schema;
        # snapshotting None keeps the disabled path branch-free.
        tracer = getattr(env, "tracer", None)
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        #: control segments discarded because nothing listens on the port
        self.closed_port_drops = 0
        telemetry.registry().pull(
            "net.stack.%s.closed_port_drops" % self.name,
            lambda: self.closed_port_drops)

    # -- ports ---------------------------------------------------------------

    def listen(self, port):
        """Open *port* for both UDP datagrams and TCP accepts."""
        self._listening.add(port)

    def is_listening(self, port):
        return port in self._listening

    # -- cost model ------------------------------------------------------------

    def rx_cost(self, msg):
        p = self.profile
        if msg.proto == TCP:
            return p.tcp_rx_fixed + p.tcp_per_byte * msg.size
        return p.udp_rx_fixed + p.udp_per_byte * msg.size

    def tx_cost(self, msg):
        p = self.profile
        if msg.proto == TCP:
            return p.tcp_tx_fixed + p.tcp_per_byte * msg.size
        return p.udp_tx_fixed + p.udp_per_byte * msg.size

    # -- processing ------------------------------------------------------------

    def process_rx(self, msg):
        """Generator: charge receive-side processing of *msg*."""
        if self._tracer is not None:
            self._tracer.emit(self.name, "rx", msg.msg_id, msg.proto)
        yield from self.pool.run_calibrated(self.rx_cost(msg))
        if msg.proto == TCP and msg.conn is not None:
            msg.conn.deliver(msg)

    def process_tx(self, msg):
        """Generator: charge transmit-side processing and stamp TCP seq."""
        if msg.proto == TCP and msg.conn is not None:
            msg.meta["tcp_seq"] = msg.conn.next_seq(msg.src)
        if self._tracer is not None:
            self._tracer.emit(self.name, "tx", msg.msg_id, msg.proto)
        yield from self.pool.run_calibrated(self.tx_cost(msg))

    def handle_control(self, msg, nic):
        """Server-side handshake handling.

        Returns True (and replies) if *msg* was a TCP control segment
        that the stack consumed; servers call this before dispatching.
        """
        if msg.kind != "tcp-syn":
            return False
        if not self.is_listening(msg.dst.port):
            # Dropped like a closed port — but counted, so scorecard
            # drop accounting sees these losses.
            self.closed_port_drops += 1
            if self._tracer is not None:
                self._tracer.emit(self.name, "closed-port-drop", msg.msg_id)
            return True
        self.env.detached(self._accept(msg, nic))
        return True

    def _accept(self, msg, nic):
        yield from self.pool.run_calibrated(self.profile.tcp_connect_cost)
        conn = msg.meta["conn"]
        conn.established = True
        ack = Message(src=msg.dst, dst=msg.src, payload=b"", proto=TCP,
                      created_at=self.env.now, conn=conn, kind="tcp-synack")
        ack.meta["request_created_at"] = msg.created_at
        yield from nic.send(ack)
