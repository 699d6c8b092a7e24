"""Shared pytest wiring: echo collected acceptance verdict lines in one
summary section at the end of the run, headed by the platform they ran
on, so a platform-dependent verdict can be traced to its machine."""

import os
import platform

import numpy as np

try:  # a test dependency only; the platform line names it when present
    import scipy
except ImportError:
    scipy = None


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode argument
        return "unknown"
    return "%s %s" % (blas.get("name", "unknown"),
                      blas.get("version", "unknown"))


def _platform_line() -> str:
    libs = "numpy %s" % np.__version__
    if scipy is not None:
        libs += ", scipy %s" % scipy.__version__
    return ("platform: Python %s, %s, BLAS %s, cpu_count %s"
            % (platform.python_version(), libs, _blas(), os.cpu_count()))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance verdicts")
        terminalreporter.write_line(_platform_line())
        for line in lines:
            terminalreporter.write_line(line)
