"""Span tracer for the borescan layers, installed from outside the package.

``install`` wraps every public function of each borescan module (the
layers) and rebinds every module global that names one, so calls made
through ``from .detect import label_mask`` are traced too. A span is
recorded around each call into a layer: a call from another module, from
a traced function, or from a comprehension or lambda. Calls that a
layer's own private helpers make (``_arc_gap_deg`` calling
``circular_delta_deg`` inside the merge loop) are work inside the layer
and pass through untraced. ``cli._inspect_tile``, the thread pool's unit
of work, is traced although private.

Each thread keeps its own parent stack, so nested calls become child
spans (``record_from_blob`` -> ``line_width`` -> ``label_mask``). Spans
stay in memory until ``dump``. Self time is a span's duration minus the
time its direct children cover.

Run as a script, it traces one ``plan`` / ``synth`` / ``inspect`` pass of
the CLI in this process and writes the spans as JSON::

    python3 bench/tracer.py --spans spans.json --walls walls.json -- \\
        plan ARGS -- synth ARGS -- inspect ARGS
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types

LAYERS = (
    "config", "scanplan", "geometry", "synth", "pgm",
    "unwrap", "detect", "locate", "manifest", "cli",
)
ALWAYS_TRACED = {"cli._inspect_tile"}


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


# Values taken from a call's arguments or result, kept on its span.
PROBES = {
    "pgm.write_pgm": lambda args, kwargs, result: _nbytes(args[1]),
    "pgm.read_pgm": lambda args, kwargs, result: _nbytes(result),
    "detect.connected_components": lambda args, kwargs, result: len(result),
    "locate.merge_duplicates": lambda args, kwargs, result: [len(args[0]), len(result)],
    "locate.stitch_panorama": lambda args, kwargs, result: result.meta["uncovered_px"],
}


class Tracer:
    """Collects spans: (name, thread, start ns, end ns, self ns, error, value)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()

    def wrap(self, name: str, fn, always: bool):
        local, clock = self._local, time.perf_counter_ns
        probe = PROBES.get(name)
        home = fn.__code__.co_filename

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always:
                caller = sys._getframe(1).f_code
                if caller.co_filename == home and caller.co_name.startswith("_"):
                    return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                self._close(stack, name, start, end, children[0], type(exc).__name__, None)
                raise
            end = clock()
            value = probe(args, kwargs, result) if probe else None
            self._close(stack, name, start, end, children[0], None, value)
            return result

        return traced

    def _close(self, stack, name, start, end, child_ns, error, value) -> None:
        stack.pop()
        if stack:
            stack[-1][0] += end - start
        self.spans.append(
            (name, threading.get_ident(), start, end, end - start - child_ns, error, value)
        )

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.spans, handle)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions in place, for the life of the process."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"borescan.{layer}")
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if not isinstance(value, types.FunctionType):
                continue
            if value.__module__ != module.__name__:
                continue
            if attr.startswith("_") and name not in ALWAYS_TRACED:
                continue
            wrappers[value] = tracer.wrap(name, value, name in ALWAYS_TRACED)
    for modname, module in list(sys.modules.items()):
        if modname != "borescan" and not modname.startswith("borescan."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])


def _split_commands(argv: list[str]) -> list[list[str]]:
    commands, current = [], []
    for arg in argv:
        if arg == "--":
            if current:
                commands.append(current)
            current = []
        else:
            current.append(arg)
    if current:
        commands.append(current)
    return commands


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[0] != "--spans" or argv[2] != "--walls":
        print("usage: tracer.py --spans OUT --walls OUT -- CMD ARGS [-- CMD ARGS]...",
              file=sys.stderr)
        return 2
    spans_path, walls_path = argv[1], argv[3]
    start = time.perf_counter()
    from borescan import cli

    walls = {"import_s": time.perf_counter() - start, "commands": {}}
    tracer = Tracer()
    install(tracer)
    code = 0
    for command in _split_commands(argv[4:]):
        start = time.perf_counter()
        code = cli.main(command)
        walls["commands"][command[0]] = {
            "seconds": time.perf_counter() - start, "exit": code
        }
        if code != 0:
            break
    tracer.dump(spans_path)
    with open(walls_path, "w", encoding="ascii") as handle:
        json.dump(walls, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
