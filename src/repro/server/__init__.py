"""Client-server substrate: a real TCP socket around either engine.

The paper's slow comparison systems (PostgreSQL, MariaDB, MonetDB server)
are slow for *architectural* reasons: results cross a socket in row-major
text messages, and bulk loads degrade into per-row INSERT statements with a
round trip each (sections 1-2, Figures 5-6).  This package reproduces the
architecture with one localhost TCP server front end,
:class:`~repro.server.aio.AsyncServer`, hosting either the columnar or the
row-store engine, and a DBI-style client (``dbWriteTable``/``dbReadTable``)
speaking a framed text protocol.  :func:`spawn_server_process` runs the
same server in a separate Python process.

Protocol configs model the relevant differences between the emulated
systems: rows per data message (MonetDB's block protocol vs. one row per
message), rows per INSERT statement, and per-field length prefixing.
"""

from repro.server.protocol import PROTOCOLS, ProtocolConfig
from repro.server.aio import AsyncServer, spawn_server_process
from repro.server.client import RemoteConnection

__all__ = [
    "PROTOCOLS",
    "ProtocolConfig",
    "AsyncServer",
    "RemoteConnection",
    "spawn_server_process",
]
