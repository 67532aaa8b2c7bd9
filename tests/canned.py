"""The canned attack scenarios, parsed from their YAML files."""

from clfsec.config import canned_config, scenario_from_config


def canned_scenario(name, values=None):
    """Scenario ``name``; ``values`` replaces its strength values, and so its range."""
    attack = canned_config(name)["attack"]
    if values is not None:
        attack["strength"]["values"] = list(values)
    return scenario_from_config(attack)
