"""Messages and addressing.

A :class:`Message` is an application-level datagram/segment moving
through the simulated network.  It carries a *real* payload (bytes or a
numpy array): applications compute real answers, and tests assert
end-to-end integrity through the Lynx data plane.
"""

from itertools import count

from ..errors import NetworkError

#: protocol tags
UDP = "udp"
TCP = "tcp"

#: Ethernet + IP + UDP header bytes added on the wire
UDP_HEADER = 46
#: Ethernet + IP + TCP header bytes
TCP_HEADER = 58

# Debug identity for trace rows, not a metric: messages have no env
# handle, and msg_ids never feed results.
_ids = count(1)  # lint: allow-global-counter


class Address:
    """An (ip, port) endpoint address."""

    __slots__ = ("ip", "port")

    def __init__(self, ip, port):
        if not isinstance(port, int) or not 0 < port < 65536:
            raise NetworkError("invalid port %r" % (port,))
        self.ip = ip
        self.port = port

    def __eq__(self, other):
        return (isinstance(other, Address)
                and self.ip == other.ip and self.port == other.port)

    def __hash__(self):
        return hash((self.ip, self.port))

    def __repr__(self):
        return "%s:%d" % (self.ip, self.port)


def payload_size(payload):
    """Size in bytes of a payload (bytes, numpy array, str or sized)."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if hasattr(payload, "__len__"):
        return len(payload)
    return 8  # scalar-ish


class Message:
    """An application message in flight."""

    __slots__ = ("msg_id", "src", "dst", "proto", "payload", "size",
                 "created_at", "_meta", "conn", "kind")

    def __init__(self, src, dst, payload, proto=UDP, created_at=0.0,
                 size=None, conn=None, kind="request"):
        self.msg_id = next(_ids)
        self.src = src
        self.dst = dst
        self.proto = proto
        self.payload = payload
        if size is None:
            size = (len(payload) if type(payload) is bytes
                    else payload_size(payload))
        self.size = size
        self.created_at = created_at
        self._meta = None
        self.conn = conn
        self.kind = kind

    @property
    def meta(self):
        """Per-message annotations, allocated on first touch — most
        requests never carry any, and the vectorized traffic plane
        creates messages by the hundred thousand."""
        m = self._meta
        if m is None:
            m = self._meta = {}
        return m

    @property
    def wire_size(self):
        """Bytes on the wire including headers."""
        header = TCP_HEADER if self.proto == TCP else UDP_HEADER
        return self.size + header

    def reply(self, payload, created_at, size=None, kind="response"):
        """Build the response message back to this message's source."""
        msg = Message(self.dst, self.src, payload, self.proto, created_at,
                      size, self.conn, kind)
        msg._meta = {"in_reply_to": self.msg_id,
                     "request_created_at": self.created_at}
        return msg

    def __repr__(self):
        return "<Message #%d %s %s->%s %dB %s>" % (
            self.msg_id, self.proto, self.src, self.dst, self.size, self.kind)
