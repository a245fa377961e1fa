"""The speed probe samples the machine and leaves the program's results alone."""

import signal
import time

import speed
from fritpid.cli import main as cli_main


def test_probe_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.02) as probe:
        wall_start, clock_start = time.perf_counter(), probe.clock()
        end = wall_start + 0.5
        while time.perf_counter() < end:
            pass
        wall = time.perf_counter() - wall_start
        clock = probe.clock() - clock_start
        samples = probe.take()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(samples) >= 5 and all(k > 0.0 for k in samples)
    # the probe's clock stops while the kernel runs
    assert clock < wall - sum(samples) + 1e-6
    assert speed.at_reference_speed(2.0, [speed.REFERENCE_S / 2]) == 4.0


def test_reproduce_under_the_probe_writes_the_same_summary(tmp_path):
    argv = ["reproduce", "example3_io", "--seeds", "2"]
    assert cli_main(argv + ["--out-dir", str(tmp_path / "plain")]) == 0
    with speed.SpeedProbe(interval=0.005) as probe:
        assert cli_main(argv + ["--out-dir", str(tmp_path / "probed")]) == 0
        assert probe.take()
    plain = (tmp_path / "plain" / "example3_io" / "summary.json").read_bytes()
    probed = (tmp_path / "probed" / "example3_io" / "summary.json").read_bytes()
    assert plain == probed
