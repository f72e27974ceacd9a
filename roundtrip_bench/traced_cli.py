"""Run one payequity subcommand with spans around the program's layers.

    python3 traced_cli.py SPANS_JSON SUBCOMMAND [ARGS...]

Wraps every public function and public method of the modules in LAYERS
(and the __init__ of their non-dataclass classes), then calls
``payequity.cli.main``. Spans are aggregated by call path in memory: each
node keeps its call count, total time and self time (total minus the
time of the spans inside it). The tree is written to SPANS_JSON when the
subcommand ends, with the number of wrapped calls; wrapper_cost() gives
the cost of one, from which the tracing overhead is estimated.

The root span starts before the program is imported and the file also
records its start and end on the system-wide monotonic clock, so the
caller can attribute interpreter start-up and exit, the only time outside
the spans: the self times of all nodes plus those two add up to the
process's wall clock.
"""

import time

_T0 = time.perf_counter()

import dataclasses  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

LAYERS = ("records", "factors", "model", "hmc", "diagnostics", "report", "baseline", "cli")


class Node:
    __slots__ = ("name", "count", "total", "self_time", "children")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = {}

    def as_dict(self):
        return {"name": self.name, "count": self.count, "total_s": self.total,
                "self_s": self.self_time,
                "children": [c.as_dict() for c in self.children.values()]}


class Tracer:
    def __init__(self, start):
        self.root = Node("process")
        self.stack = [[self.root, start, 0.0]]   # frames: [node, start, time in children]
        self.calls = 0

    def wrap(self, name, fn):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent[0].children.get(name)
            if node is None:
                node = parent[0].children[name] = Node(name)
            frame = [node, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                node.count += 1
                node.total += duration
                node.self_time += duration - frame[2]
                parent[2] += duration
                self.calls += 1
        return traced

    def finish(self, end):
        root = self.root
        root.count = 1
        root.total = end - self.stack[0][1]
        root.self_time = root.total - self.stack[0][2]


def install(tracer):
    """Replace the layers' public callables by traced ones, everywhere the
    package holds a reference to them."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module("payequity." + layer)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap("%s.%s" % (layer, attr), obj)
                setattr(mod, attr, replaced[obj])
            elif inspect.isclass(obj):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_") and (name != "__init__" or dataclasses.is_dataclass(obj)):
                        continue
                    label = "%s.%s.%s" % (layer, attr, name)
                    if isinstance(member, classmethod):
                        setattr(obj, name, classmethod(tracer.wrap(label, member.__func__)))
                    elif isinstance(member, staticmethod):
                        setattr(obj, name, staticmethod(tracer.wrap(label, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, name, tracer.wrap(label, member))
    # names bound by "from .x import y" still point at the originals
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "payequity" or mod_name.startswith("payequity."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])


def wrapper_cost(n=20000, repeats=5):
    """Seconds one traced call adds to a call of an empty function (the
    fastest of a few repeats, so that a busy host inflates it less)."""
    def empty():
        return None

    def per_call(fn):
        fastest = float("inf")
        for _ in range(repeats):
            t = time.perf_counter()
            for _ in range(n):
                fn()
            fastest = min(fastest, (time.perf_counter() - t) / n)
        return fastest

    return per_call(Tracer(time.perf_counter()).wrap("calibration", empty)) - per_call(empty)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(_T0)
    cli = tracer.wrap("import", importlib.import_module)("payequity.cli")
    install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.finish(time.perf_counter())
        with open(spans_path, "w") as fh:
            json.dump({"tree": tracer.root.as_dict(), "calls": tracer.calls,
                       "start": _T0, "end": _T0 + tracer.root.total}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
