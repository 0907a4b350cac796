"""The entry points that ``perfbench/tracer.py`` wraps exist where it looks.

The tracer patches module functions by name and class methods only where
their own class body defines them, and ``Tracer.install`` raises when a
target is missing; a renamed or inherited target would otherwise show up
only as a failed traced benchmark run."""

import importlib
import importlib.util
import os
import pkgutil

import mdel

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    for info in pkgutil.iter_modules(mdel.__path__):
        importlib.import_module(f"mdel.{info.name}")
    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = tracer.patched
    finally:
        tracer.uninstall()
    assert {attr for _, attr, _ in patched} >= {
        path.split(".")[-1] for _, path, _, _ in tracer_module.TARGETS}
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
