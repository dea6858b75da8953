"""The calibration kernel's speed, measured in a forked child.

A process whose own memory and exit are part of what is measured (a CLI
command, a set-up probe, an import probe) must not load the kernel's
modules, scipy.spatial among them: the child imports calibrate, runs it and
leaves with os._exit, and the parent gets the figure through a pipe. This
module imports only the standard library.
"""

from __future__ import annotations

import os
import struct


def speed() -> float:
    """calibrate.speed() as run in a forked child of this process."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            import calibrate
            calibrate.kernel()       # the first run in a new process is slow
            os.write(write, struct.pack("d", calibrate.speed(5)))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if len(data) != 8:
        raise RuntimeError("the calibration child sent no result")
    return struct.unpack("d", data)[0]
