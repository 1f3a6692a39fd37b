"""Every library function the benchmark's per-layer tracer wraps still exists.

perfbench/layertrace.py looks each traced name up with vars(owner)[attr] and
raises KeyError on one that is gone, which breaks every `--trace 1` run.
This test reads that table (it changes nothing under perfbench/), so
deleting or renaming a traced function fails here first.
"""
import importlib

from conftest import load_layertrace


def missing_names(traced, moved):
    """Traced entries - "function", "Class.method" or "prefix*" per layer,
    plus the (module, name) pairs of moved - that prismlab does not define."""
    missing = []
    for layer, names in traced.items():
        namespace = vars(importlib.import_module(f"prismlab.{layer}"))
        for name in names:
            if name.endswith("*"):
                found = any(key.startswith(name[:-1]) for key in namespace)
            elif "." in name:
                cls, attr = name.split(".")
                found = cls in namespace and attr in vars(namespace[cls])
            else:
                found = name in namespace
            if not found:
                missing.append(f"{layer}.{name}")
    for module, name in moved:
        if name not in vars(importlib.import_module(f"prismlab.{module}")):
            missing.append(f"{module}.{name}")
    return missing


def test_every_traced_name_resolves():
    layertrace = load_layertrace()
    assert missing_names(layertrace.TRACED, layertrace.MOVED) == []


def test_a_deleted_name_is_reported():
    traced = {"connops": ("tensor", "no_such_function"),
              "linalg": ("Matrix.charpoly", "Matrix.no_such_method", "NoSuchClass.x"),
              "cli": ("cmd_*", "no_such_prefix*")}
    assert missing_names(traced, {("cli", "_no_such_loader"): "serialize"}) == [
        "connops.no_such_function", "linalg.Matrix.no_such_method",
        "linalg.NoSuchClass.x", "cli.no_such_prefix*", "cli._no_such_loader"]
