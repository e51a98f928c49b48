"""Attack registry mirroring Table 1 of the paper.

Each entry records the attack's category (gradient / score / decision based),
the norm it minimises, whether it is one-shot or iterative, and the strength
rating the paper quotes from Akhtar & Mian (2018).  The entries live in the
unified ``"attack"`` registry (:mod:`repro.registry`); ``ATTACK_SPECS``
maps each name :func:`register_attack` added to its spec, and
:func:`create_attack` and :func:`list_attacks` are the historical entry
points over the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Type

from repro.attacks.base import Attack
from repro.attacks.boundary import BoundaryAttack
from repro.attacks.carlini_wagner import CarliniWagnerL2
from repro.attacks.deepfool import DeepFool
from repro.attacks.fgsm import FGSM
from repro.attacks.hopskipjump import HopSkipJump
from repro.attacks.jsma import JSMA
from repro.attacks.lsa import LocalSearchAttack
from repro.attacks.pgd import PGD
from repro.registry import registry

#: unified registry of evasion attacks (namespace ``"attack"``)
ATTACKS = registry("attack")


@dataclass
class AttackSpec:
    """Metadata and default construction parameters for one attack method."""

    name: str
    attack_class: Type[Attack]
    category: str
    norm: str
    learning: str
    strength: int
    default_params: dict = field(default_factory=dict)

    def create(self, **overrides) -> Attack:
        """Instantiate the attack with default parameters plus ``overrides``."""
        params = dict(self.default_params)
        params.update(overrides)
        return self.attack_class(**params)


#: attack name -> :class:`AttackSpec`, filled by :func:`register_attack`
ATTACK_SPECS: Dict[str, AttackSpec] = {}


def register_attack(spec: AttackSpec) -> AttackSpec:
    """Add an attack to the unified registry, keyed by its spec name."""
    ATTACKS.register(
        spec.name,
        spec.create,
        metadata={
            "spec": spec,
            "category": spec.category,
            "norm": spec.norm,
            "learning": spec.learning,
            "strength": spec.strength,
        },
    )
    ATTACK_SPECS[spec.name] = spec
    return spec


# registration order follows the paper's Table 1
for _spec in (
    AttackSpec("fgsm", FGSM, "gradient-based", "Linf", "one-shot", 3),
    AttackSpec("pgd", PGD, "gradient-based", "Linf", "iterative", 4),
    AttackSpec("jsma", JSMA, "gradient-based", "L0", "iterative", 3),
    AttackSpec("cw", CarliniWagnerL2, "gradient-based", "L2", "iterative", 5),
    AttackSpec("deepfool", DeepFool, "gradient-based", "L2", "iterative", 4),
    AttackSpec("lsa", LocalSearchAttack, "score-based", "L2", "iterative", 3),
    AttackSpec("boundary", BoundaryAttack, "decision-based", "L2", "iterative", 3),
    AttackSpec("hsj", HopSkipJump, "decision-based", "L2", "iterative", 5),
):
    register_attack(_spec)
del _spec


def list_attacks() -> List[str]:
    """Names of all registered attacks, in the paper's Table 1 order."""
    return ATTACKS.names()


def create_attack(name: str, **overrides) -> Attack:
    """Instantiate an attack by name (shim over the ``"attack"`` registry)."""
    return ATTACKS.create(name, **overrides)
