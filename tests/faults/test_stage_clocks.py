"""Both clocks per stage, pinned for every chaos scenario at seed 1.

Each wall-timed stage is instrumented once, by ``Tracer.measure``, which
feeds the modelled span and the ``prof.stage_wall_ns`` histogram from
the same call.  This table pins both: per stage, the modelled
``(spans, packets)`` and the wall-sample count.  The counts differ on
purpose where a measured region records no span — an empty RX poll, a
failed GPU launch attempt — and where a modelled-only ``record`` adds
one (gather, scatter, GPU retry back-off).
"""

import pytest

from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.obs import (
    get_registry,
    get_tracer,
    names,
    reset_registry,
    reset_tracer,
)
from repro.obs.flightrec import reset_flightrec

#: scenario -> ({stage: (spans, packets)}, {stage: wall samples}).
EXPECTED = {
    "breaker": (
        {"cpu_process": (17, 1462), "gather": (3, 586), "gpu": (10, 0),
         "gpu_fallback": (7, 586), "post_shade": (7, 586),
         "pre_shade": (7, 586), "rx": (24, 2048), "scatter": (7, 586)},
        {"cpu_process": 17, "gpu": 15, "gpu_fallback": 7, "post_shade": 7,
         "pre_shade": 7, "rx": 51},
    ),
    "chaos": (
        {"gather": (10, 1929), "gpu": (31, 1847), "gpu_fallback": (1, 82),
         "post_shade": (24, 1929), "pre_shade": (24, 1929), "rx": (24, 1929),
         "scatter": (24, 1929)},
        {"gpu": 32, "gpu_fallback": 1, "post_shade": 24, "pre_shade": 24,
         "rx": 51},
    ),
    "ddos": (
        {"gather": (9, 1267), "gpu": (25, 1267), "post_shade": (25, 1267),
         "pre_shade": (25, 1267), "rx": (25, 1267), "scatter": (25, 1267)},
        {"gpu": 25, "post_shade": 25, "pre_shade": 25, "rx": 37},
    ),
    "dma-error": (
        {"gather": (8, 2048), "gpu": (41, 1790), "gpu_fallback": (3, 258),
         "post_shade": (24, 2048), "pre_shade": (24, 2048), "rx": (24, 2048),
         "scatter": (24, 2048)},
        {"gpu": 44, "gpu_fallback": 3, "post_shade": 24, "pre_shade": 24,
         "rx": 51},
    ),
    "gpu-failure": (
        {"gather": (8, 2048), "gpu": (30, 2048), "post_shade": (24, 2048),
         "pre_shade": (24, 2048), "rx": (24, 2048), "scatter": (24, 2048)},
        {"gpu": 30, "post_shade": 24, "pre_shade": 24, "rx": 51},
    ),
    "gpu-timeout": (
        {"gather": (8, 2048), "gpu": (35, 2048), "post_shade": (24, 2048),
         "pre_shade": (24, 2048), "rx": (24, 2048), "scatter": (24, 2048)},
        {"gpu": 35, "post_shade": 24, "pre_shade": 24, "rx": 51},
    ),
    "heavy-tail": (
        {"gather": (18, 2048), "gpu": (43, 2048), "post_shade": (43, 2048),
         "pre_shade": (43, 2048), "rx": (43, 2048), "scatter": (43, 2048)},
        {"gpu": 43, "post_shade": 43, "pre_shade": 43, "rx": 70},
    ),
    "malformed": (
        {"gather": (8, 2048), "gpu": (24, 2048), "post_shade": (24, 2048),
         "pre_shade": (24, 2048), "rx": (24, 2048), "scatter": (24, 2048)},
        {"gpu": 24, "post_shade": 24, "pre_shade": 24, "rx": 51},
    ),
    "queue-overflow": (
        {"gather": (15, 1964), "gpu": (23, 1964), "post_shade": (23, 1964),
         "pre_shade": (24, 2048), "rx": (24, 2048), "scatter": (23, 1964)},
        {"gpu": 23, "post_shade": 23, "pre_shade": 24, "rx": 51},
    ),
    "rx-overflow": (
        {"gather": (8, 1634), "gpu": (24, 1634), "post_shade": (24, 1634),
         "pre_shade": (24, 1634), "rx": (24, 1634), "scatter": (24, 1634)},
        {"gpu": 24, "post_shade": 24, "pre_shade": 24, "rx": 51},
    ),
    "syn-flood": (
        {"gather": (13, 1435), "gpu": (37, 1435), "post_shade": (37, 1435),
         "pre_shade": (37, 1435), "rx": (37, 1435), "scatter": (37, 1435)},
        {"gpu": 37, "post_shade": 37, "pre_shade": 37, "rx": 58},
    ),
}


@pytest.fixture(autouse=True)
def fresh_obs():
    reset_registry()
    reset_flightrec()
    reset_tracer()
    yield
    reset_registry()
    reset_flightrec()
    reset_tracer()


def test_table_covers_every_scenario():
    assert sorted(EXPECTED) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stage_spans_and_wall_samples(name):
    run_scenario(name, seed=1)
    spans = {
        stage: (cost.spans, cost.packets)
        for stage, cost in get_tracer().summary().items()
    }
    wall = {
        dict(metric.labels)["stage"]: metric.count
        for metric in get_registry().collect()
        if metric.name == names.PROF_STAGE_WALL_NS and metric.count
    }
    assert (spans, wall) == EXPECTED[name]
