"""Line reach check: which lines of ``src/translayer`` tier 1 never runs.

Runs the test suite in this process under a line tracer (``sys.settrace``
and ``threading.settrace``) and compares the lines it reaches with every
executable line of the package, read off its code objects' ``co_lines``.
Forked pool workers inherit the tracer, and leave by ``os._exit`` without
running ``atexit``, so each process appends each line as it first reaches
it to a file of its own, unbuffered. Run from the repository root::

    python tests/reach.py [pytest arguments]

It exits 1 if an unreached line is missing from ``tests/unreached.txt``,
a line listed there is reached, or an entry does not name exactly one
line, and with pytest's status if a test fails. Each entry of the list is
``module.py | text | reason``, one a line: ``text`` is the line's source,
stripped, so that an edit elsewhere in the module leaves the entry valid;
it must be the text of exactly one executable line of the module.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "translayer")
LISTED = os.path.join(ROOT, "tests", "unreached.txt")


def executable_lines() -> set[tuple[str, int]]:
    """``(module file name, line)`` of every line of the package's code."""
    lines = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            code = [compile(fh.read(), name, "exec")]
        while code:
            co = code.pop()
            lines.update((name, line) for _, _, line in co.co_lines() if line)
            code.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def module_lines() -> dict[str, list[str]]:
    """Each module file name's source lines, stripped."""
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                sources[name] = [text.strip() for text in fh]
    return sources


def trace_into(directory: str):
    """A global trace function that appends ``module.py:LINE`` of each
    package line it first sees in a process to ``directory/<pid>``."""
    prefix = PACKAGE + os.sep
    seen, files = set(), {}

    def record(frame):
        key = (frame.f_code.co_filename, frame.f_lineno)
        if key not in seen:
            seen.add(key)
            pid = os.getpid()
            if pid not in files:
                files[pid] = os.open(os.path.join(directory, str(pid)),
                                     os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            name = os.path.basename(key[0])
            os.write(files[pid], f"{name}:{key[1]}\n".encode())

    def local(frame, event, arg):
        if event == "line":
            record(frame)
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        record(frame)
        return local

    return call


def read_listed() -> dict[tuple[str, str], str]:
    """The listed ``(module file name, stripped line text)`` pairs, each
    with its reason."""
    listed = {}
    with open(LISTED) as fh:
        for text in fh:
            if text.strip() and not text.startswith("#"):
                name, rest = text.split(" | ", 1)
                line, reason = rest.rsplit(" | ", 1)
                listed[name.strip(), line.strip()] = reason.strip()
    return listed


def locate(listed, lines) -> tuple[dict[tuple[str, int], str], list[str]]:
    """``(module, line)`` of each listed entry, with its reason, among the
    executable ``lines``; and a fault for each entry whose module is not
    in the package or whose text is on no executable line of it, or on
    more than one."""
    sources = module_lines()
    at = {}
    for name, line in sorted(lines):
        at.setdefault((name, sources[name][line - 1]), []).append(line)
    located, faults = {}, []
    for (name, text), reason in listed.items():
        found = at.get((name, text), [])
        if name not in sources:
            faults.append(f"{name} | {text}: no such module in {PACKAGE}")
        elif len(found) == 1:
            located[name, found[0]] = reason
        elif not found:
            faults.append(f"{name} | {text}: on no executable line of {name}")
        else:
            faults.append(f"{name} | {text}: on executable lines "
                          f"{', '.join(map(str, found))} of {name}, not one")
    return located, faults


def main(args) -> int:
    sys.path.insert(0, os.path.dirname(PACKAGE))   # the package traced is this one
    with tempfile.TemporaryDirectory() as directory:
        tracer = trace_into(directory)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            # a fixed seed, so the lines the property tests reach do not
            # change between runs
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  "--hypothesis-seed=0", *args])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        reached = set()
        for pid in os.listdir(directory):
            with open(os.path.join(directory, pid)) as fh:
                for text in fh:
                    name, line = text.split(":")
                    reached.add((name, int(line)))
    if status != 0:
        return status
    lines = executable_lines()
    unreached = lines - reached
    listed, faults = locate(read_listed(), lines)
    sources = module_lines()
    faults += [f"{name}:{line}: no test reaches it | {sources[name][line - 1]}"
               for name, line in sorted(unreached - listed.keys())]
    faults += [f"{name}:{line}: listed, but a test reaches it | "
               f"{sources[name][line - 1]}"
               for name, line in sorted(listed.keys() - unreached)]
    for fault in faults:
        print(fault)
    print(f"reach: {len(lines) - len(unreached)} of {len(lines)} lines "
          f"reached, {len(listed)} listed unreached")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
