"""Echo process for the transport probe: joins a listening master as
rank 1 and sends every message straight back until told to stop."""

from __future__ import annotations

import sys

#: Tag that ends the echo loop (any other tag is echoed back).
STOP_TAG = 2


def main(endpoint: str) -> int:
    from repro.parallel.comm import Comm
    from repro.parallel.transport import TcpTransport

    host, _, port = endpoint.rpartition(":")
    transport = TcpTransport.connect(host, int(port), timeout=60)
    try:
        comm = Comm(transport, transport.rank)
        while True:
            _, tag, payload = comm.recv(source=0)
            if tag == STOP_TAG:
                return 0
            comm.send(payload, 0, tag)
    finally:
        transport.close()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
