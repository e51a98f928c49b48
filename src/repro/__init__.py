"""Defensive Approximation (DA) -- reproduction of Guesmi et al., ASPLOS 2021.

``repro`` implements, from the gate level up, the full system described in
"Defensive Approximation: Securing CNNs using Approximate Computing":

* :mod:`repro.arith` -- approximate adder cells, gate-level array multipliers
  and the Ax-FPM / HEAP / Bfloat16 floating point multipliers;
* :mod:`repro.nn` -- a pure-numpy CNN substrate (layers, training, model zoo)
  with approximate and quantised layer variants;
* :mod:`repro.datasets` -- synthetic MNIST-like and CIFAR-like datasets;
* :mod:`repro.attacks` -- the eight evasion attacks of the paper's Table 1;
* :mod:`repro.core` -- the Defensive Approximation defense and the
  threat-model protocols the cells run (transfer, white-box);
* :mod:`repro.hw` -- the analytical energy/delay cost model;
* :mod:`repro.registry` -- the unified component registry every pluggable
  piece (multipliers, adder cells, attacks, models, datasets, zoo entries,
  experiment kinds) is registered in;
* :mod:`repro.pipeline` -- the declarative experiment pipeline: one
  :class:`~repro.pipeline.spec.ExperimentSpec` per paper table/figure,
  executed by the :class:`~repro.pipeline.runner.Runner` (also available
  from the command line as ``python -m repro``).

Public API quickstart::

    from repro import Registry, Runner, create_attack, get_multiplier

    Runner(fast=True).run("table04_blackbox_mnist")

(The registry *hub accessor* is ``repro.registry.registry`` -- it is not
re-exported here because the ``repro.registry`` submodule shadows the name.)
"""

__version__ = "1.1.0"


def __getattr__(name):
    """Lazily re-export the public API to keep ``import repro`` light."""
    if name in ("Registry", "namespaces"):
        import repro.registry as _registry

        return getattr(_registry, name)
    if name in ("ExperimentSpec", "AttackGridEntry", "ExperimentResult", "Runner",
                "list_experiments", "get_experiment"):
        import repro.pipeline as _pipeline

        return getattr(_pipeline, name)
    if name == "DefensiveApproximation":
        from repro.core.defense import DefensiveApproximation

        return DefensiveApproximation
    if name == "get_multiplier":
        from repro.arith.fpm import get_multiplier

        return get_multiplier
    if name == "create_attack":
        from repro.attacks.registry import create_attack

        return create_attack
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "__version__",
    "Registry",
    "namespaces",
    "ExperimentSpec",
    "AttackGridEntry",
    "ExperimentResult",
    "Runner",
    "list_experiments",
    "get_experiment",
    "DefensiveApproximation",
    "get_multiplier",
    "create_attack",
]
