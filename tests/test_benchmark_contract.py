"""The benchmark in `perfbench/` times and counts uflst functions by name.

A renamed or removed function would silently read 0 in its per-layer
metrics, so every name it hooks must stay a public function of its module.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")


def load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


tracer = load("tracer")
run = load("run")
ROLES = set(tracer.FORWARD_ROLES.values())


def hooked_names():
    """Every hooked name, with a `network.forward` role suffix stripped."""
    names = set()
    for name in (*run.TIMED, *tracer.HOOKS, *tracer.FORWARD_ROLES):
        base, last = name.rsplit(".", 1)
        names.add(base if last in ROLES else name)
    return sorted(names)


@pytest.mark.parametrize("name", hooked_names())
def test_hooked_name_is_a_public_function(name):
    mod_name, attr = name.split(".")
    assert mod_name in tracer.MODULES
    module = importlib.import_module(f"uflst.{mod_name}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_jaccard_edge_count_reads_the_edge_list():
    # `--trace 1` counts Jaccard edges from the dense `.values` view
    from uflst import metric

    points = np.random.default_rng(0).normal(size=(60, 3))
    jm = metric.build_jaccard(points, 6)
    t = tracer.Tracer()
    tracer._jaccard_edges(t, 0, (), jm)
    assert jm.dist.size > 0
    assert t.counts["metric.jaccard_edges"] == jm.dist.size


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_overrides_load(name):
    # a removed or renamed config key would stop every benchmark run
    from uflst import config

    workload = run.Workload(name, seed=2, root=PERFBENCH)
    config.build_synthetic_spec(
        config.load_config(overrides=workload.synth_overrides))
    config.build_train_config(
        config.load_config(overrides=workload.train_overrides))
