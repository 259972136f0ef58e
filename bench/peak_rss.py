"""Run a Python command in this process and write its own peak RSS at exit.

Usage: python bench/peak_rss.py PEAK_FILE -m MODULE ARGS...
       python bench/peak_rss.py PEAK_FILE SCRIPT ARGS...

The command runs as `python -m MODULE ARGS...` or `python SCRIPT ARGS...`
would run it. When the interpreter exits, normally or by an uncaught
exception, `VmHWM` of this process (in kB) is written to PEAK_FILE.

The peak is read from inside because the parent cannot see the command's
own: `wait4` reports `ru_maxrss` over the whole process history, and on
Linux exec keeps the high-water mark of the address space it replaces,
which after `posix_spawn` (vfork) is the parent's. `VmHWM` belongs to the
address space exec made, so it counts only the command.
"""

import atexit
import os
import runpy
import sys


def _write_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                kb = line.split()[1]
                break
    with open(path, "w", encoding="ascii") as out:
        out.write(kb)


def main() -> None:
    peak_file, *command = sys.argv[1:]
    atexit.register(_write_peak, peak_file)
    if command[0] == "-m":
        sys.argv = [command[1], *command[2:]]
        sys.path[0] = os.getcwd()  # as `python -m` has it
        runpy.run_module(command[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = command
        sys.path[0] = os.path.dirname(os.path.abspath(command[0]))
        runpy.run_path(command[0], run_name="__main__")


if __name__ == "__main__":
    main()
