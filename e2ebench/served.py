"""The served system under test: a ``PartitionServer`` in its own process.

The server process is forked from the benchmark (so wrappers installed
by a traced run are inherited) and starts with no workers; the client
then adds workers one at a time, waiting for each to show in ``ping``.
Processes are never started concurrently, because concurrent start-up
made set-up times jitter.
"""

from __future__ import annotations

import multiprocessing
import time

#: Seconds any single control-pipe exchange may take before the run
#: gives up on the server process.
PIPE_TIMEOUT_S = 60.0


def _server_main(conn, store_dir: str, tracer) -> None:
    """Server process: serve, answering trace-snapshot requests on the
    control pipe, until told to stop."""
    if tracer is not None:
        tracer.after_fork()
    from repro.workbench.server import PartitionServer

    server = PartitionServer(
        port=0, workers=0, min_workers=0, store=store_dir
    )
    try:
        server.start()
        conn.send(server.address)
        while conn.recv() == "snapshot":
            conn.send(tracer.snapshot() if tracer is not None else None)
    finally:
        server.close()
        conn.close()


class ServedSystem:
    """Start the server, then its workers one by one; stop it all."""

    def __init__(self, store_dir: str, workers: int, tracer=None) -> None:
        from repro.workbench.server import ServerClient

        self.starts: list[tuple[str, float, float]] = []
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        begin = time.perf_counter()
        self.process = ctx.Process(
            target=_server_main, args=(child, store_dir, tracer)
        )
        self.process.start()
        child.close()
        self.client = None
        try:
            address = self._recv()
            self.client = ServerClient(address, timeout=300.0)
            self.client.ping()
            self.starts.append(("server", begin, time.perf_counter()))
            for target in range(1, workers + 1):
                begin = time.perf_counter()
                self.client.scale(target)
                deadline = begin + PIPE_TIMEOUT_S
                while self.client.ping()["workers"] < target:
                    if time.perf_counter() > deadline:
                        raise RuntimeError(f"worker {target} never joined")
                    time.sleep(0.001)
                self.starts.append(
                    (f"worker{target}", begin, time.perf_counter())
                )
            self.worker_pids = [
                int(info["pid"])
                for info in self.client.stats()["worker_info"]
            ]
        except BaseException:
            self.stop()
            raise

    def _recv(self):
        if not self._conn.poll(PIPE_TIMEOUT_S):
            raise RuntimeError("server process did not answer")
        return self._conn.recv()

    @property
    def pids(self) -> list[int]:
        return [self.process.pid, *self.worker_pids]

    def snapshot(self) -> dict | None:
        """The server parent's trace totals so far."""
        self._conn.send("snapshot")
        return self._recv()

    def stop(self) -> None:
        """Shut the server and its workers down and wait for them."""
        if self.client is not None:
            self.client.close()
            self.client = None
        try:
            self._conn.send("stop")
        except OSError:
            pass  # the server process is already gone
        self.process.join(PIPE_TIMEOUT_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self._conn.close()
