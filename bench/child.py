"""Run one qtwist CLI campaign in this (fresh) interpreter.

    python3 child.py SRC_DIR TRACE_FILE CAMPAIGN_ID -- [QTWIST_ARGV...]

Imports ``qtwist.cli`` from SRC_DIR and prints ``ready``, so the parent can
time the interpreter's set-up; with no QTWIST_ARGV it then only takes one
host-speed probe and exits.  Otherwise it runs ``cli.main(QTWIST_ARGV)`` while a
``HostProbe`` samples the host's speed, and prints one JSON line with the exit
code, the time inside ``cli.main`` (without the probes), the probe times and
the peak resident set size.  When TRACE_FILE is not ``-``, the layer modules
are wrapped by ``tracer.Tracer`` before the call and its dump is written there.
"""

import gc
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_STEPS = 2000       # one probe: a few milliseconds
PROBE_PERIOD_S = 0.2


def fraction_loop(steps: int) -> float:
    """Seconds for ``steps`` steps of a fixed exact ``Fraction`` sum, a measure
    of the host's current speed that does not depend on qtwist.  The collector
    is off during the loop, so the size of the heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, steps + 1):
            acc += Fraction(k % 13 - 6, k % 11 + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Times ``PROBE_STEPS`` steps of ``fraction_loop`` at the start, every
    ``PROBE_PERIOD_S`` of wall time (SIGALRM) and at the end of a campaign.

    Host speed on a shared machine drifts within seconds, so evenly spaced
    samples across the campaign measure the speed it actually ran at.
    ``spent`` is the time the probes took; the campaign's time excludes it,
    and ``on_probe(seconds)`` can take it out of other timers too.
    """

    def __init__(self, on_probe=None):
        self.samples: list = []
        self.spent = 0.0
        self.on_probe = on_probe

    def probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.samples.append(fraction_loop(PROBE_STEPS))
        dt = time.perf_counter() - t0
        self.spent += dt
        if self.on_probe is not None:
            self.on_probe(dt)

    def start(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    src, trace_file, campaign, sep = sys.argv[1:5]
    argv = sys.argv[5:]
    if sep != "--":
        print("usage: child.py SRC_DIR TRACE_FILE CAMPAIGN_ID -- ARGV...", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(src))
    import qtwist.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print("qtwist was imported from %s, not from %s" % (cli.__file__, src), file=sys.stderr)
        return 2
    print("ready", flush=True)
    host = HostProbe()
    if not argv:  # set-up only: one probe to scale the set-up time by
        host.probe()
        print(json.dumps({"rc": 0, "probe_first_s": host.samples[0]}), flush=True)
        return 0

    tracer = None
    if trace_file != "-":
        from tracer import Tracer

        tracer = Tracer(campaign).install()
        host.on_probe = tracer.exclude
    host.start()
    spent0 = host.spent
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        host.stop()
    main_s = time.perf_counter() - t0 - (host.spent - spent0)
    host.probe()
    if tracer is not None:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rc": rc, "main_s": main_s, "rss_mb": rss_mb,
                      "probe_first_s": host.samples[0],
                      "probe_mean_s": sum(host.samples) / len(host.samples),
                      "probes": len(host.samples)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
