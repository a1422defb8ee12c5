"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the workdir, the set-up argv list (run first, into the empty
workdir), the timed argv list, whether to trace, and where to write the
result. Every argv goes to ``mpemba.cli.main`` with ``-o <workdir>``.
After each command the files it wrote are moved to ``out/<index>/`` so the
checker sees each command's own outputs; that bookkeeping is not timed.

Unless SPEC's ``probe_every_s`` is null, the worker pauses after set-up, at
the first command boundary ``probe_every_s`` seconds after the last pause,
and after the last command: it writes ``probe`` to standard output and
waits for a line on standard input while the runner times its reference
probe (``reference.py``). Neither the program nor its timed windows see it.
"""

import contextlib
import json
import os
import shutil
import sys
import time
import traceback

SHARED_FILES = ("calibration.json",)  # read by later commands, so copied, not moved


def _snapshot(workdir):
    return {e.name: e.stat().st_mtime_ns for e in os.scandir(workdir) if e.is_file()}


def _collect(workdir, before, dest):
    os.makedirs(dest)
    for name, mtime in _snapshot(workdir).items():
        if before.get(name) == mtime:
            continue
        src = os.path.join(workdir, name)
        if name in SHARED_FILES:
            shutil.copy2(src, dest)
        else:
            os.replace(src, os.path.join(dest, name))


def peak_rss_mb():
    """Peak resident memory of this program (VmHWM). ``ru_maxrss`` would
    also count the parent's resident set, which exec carries over."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def pause_for_probe(channel):
    """Wait while the runner times its reference probe; return when it ends."""
    channel.write("probe\n")
    channel.flush()
    sys.stdin.readline()
    return time.monotonic()


def run_command(cli, workdir, argv, index):
    before = _snapshot(workdir)
    error = None
    t0 = time.monotonic()
    try:
        code = cli.main(["-o", workdir] + argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a command that raises is a failed command; keep going
        code, error = None, traceback.format_exc(limit=4)
    t1 = time.monotonic()
    _collect(workdir, before, os.path.join(workdir, "out", str(index)))
    return {"argv": argv, "t0": t0, "t1": t1, "code": code, "error": error}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import mpemba.cli as cli
    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        print(f"worker: imported {cli.__file__}, not the checkout's src", file=sys.stderr)
        return 2
    tracer, missing = None, []
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        missing = spans.install(tracer)
    workdir = spec["workdir"]
    commands = []
    every = spec["probe_every_s"]
    # Pauses go over a copy of the runner's pipe; the program's own output
    # goes to /dev/null, so nothing it prints can ask for a pause.
    channel = os.fdopen(os.dup(1), "w")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        os.dup2(sink.fileno(), 1)
        t_ready = time.monotonic()
        for argv in spec["setup"]:
            commands.append(run_command(cli, workdir, argv, len(commands)))
        t_setup = time.monotonic()
        if every is not None:
            t_probe = pause_for_probe(channel)
        for argv in spec["commands"]:
            if every is not None and time.monotonic() - t_probe >= every:
                t_probe = pause_for_probe(channel)
            commands.append(run_command(cli, workdir, argv, len(commands)))
        t_end = time.monotonic()
        if every is not None and spec["commands"]:
            pause_for_probe(channel)
    result = {
        "t_ready": t_ready, "t_setup": t_setup, "t_end": t_end, "n_setup": len(spec["setup"]),
        "commands": commands, "missing": missing,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["spans"] = [s.as_dict() for s in tracer.spans]
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
