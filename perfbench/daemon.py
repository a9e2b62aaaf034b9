"""Run the coordination daemon CLI with one of the benchmark's probes.

Used by service-replay passes in place of ``python -m repro.service``::

    python3 perfbench/daemon.py --spans <spans.npz> serve [serve options...]
    python3 perfbench/daemon.py --yardstick <samples.json> serve [...]

``--spans`` patches the ``repro`` entry points from here (traced passes);
``--yardstick`` samples the host's speed on the daemon's CPU (untraced
passes).  Either hands the remaining arguments to the daemon's own
``main`` and writes what it recorded when the daemon exits after its
drain.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from yardstick import Yardstick  # noqa: E402


def main(argv) -> int:
    from repro.service.__main__ import main as serve
    probe, path, args = argv[0], argv[1], argv[2:]
    if probe == "--spans":
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install()
        try:
            return serve(args)
        finally:
            recorder.uninstall()
            recorder.dump(path)
    if probe == "--yardstick":
        yardstick = Yardstick()
        yardstick.start()
        try:
            return serve(args)
        finally:
            yardstick.stop()
            yardstick.dump(path)
    raise SystemExit(f"unknown probe {probe!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
