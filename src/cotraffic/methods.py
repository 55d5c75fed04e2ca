"""Experiment method roster and their configuration constraints."""
from dataclasses import dataclass

from .env import CooperationMode, EnvConfig
from .network import ConfigError


@dataclass(frozen=True)
class MethodSpec:
    name: str
    env_cfg: EnvConfig
    forced_penetration: float = None
    default_penetration: float = None
    notes: str = ""

    @property
    def rl(self):
        """Whether the method is learned: its `EnvConfig` has a learned
        agent type."""
        return bool(self.env_cfg.learned)


METHODS = {
    "baseline-static": MethodSpec(
        "baseline-static", EnvConfig(tl_plan="static", cav_plan="idm"),
        default_penetration=0.0),
    "actuated": MethodSpec(
        "actuated", EnvConfig(tl_plan="actuated", cav_plan="idm"),
        default_penetration=0.0),
    "max-pressure": MethodSpec(
        "max-pressure", EnvConfig(tl_plan="max-pressure", cav_plan="idm"),
        default_penetration=0.0),
    "glosa": MethodSpec(
        "glosa", EnvConfig(tl_plan="actuated", cav_plan="glosa"),
        forced_penetration=1.0,
        notes="speed advisory controls every vehicle; paired with the "
              "actuated light plan"),
    "cotv": MethodSpec("cotv", EnvConfig(CooperationMode.COTV)),
    "cotv-star": MethodSpec("cotv-star", EnvConfig(CooperationMode.COTV_STAR)),
    "i-cotv": MethodSpec("i-cotv", EnvConfig(CooperationMode.I_COTV)),
    "m-cotv": MethodSpec("m-cotv", EnvConfig(CooperationMode.M_COTV)),
    "flowcav": MethodSpec(
        "flowcav", EnvConfig(CooperationMode.I_COTV, tl_plan="static"),
        default_penetration=1.0,
        notes="vehicle agents only, lights on the fixed plan"),
    "presslight": MethodSpec(
        "presslight", EnvConfig(CooperationMode.I_COTV, cav_plan="idm"),
        forced_penetration=0.0,
        notes="light agents only on pressure state/reward; trained with PPO "
              "here rather than the original DQN"),
}


def get_method(name):
    try:
        return METHODS[name]
    except KeyError:
        raise ConfigError(
            f"unknown method {name!r}; expected one of {sorted(METHODS)}") from None


def resolve_penetration(method, requested, scenario_default):
    """Apply the method's penetration constraints to the requested rate."""
    if method.forced_penetration is not None:
        if requested is not None and requested != method.forced_penetration:
            raise ConfigError(
                f"method {method.name} fixes the penetration rate at "
                f"{method.forced_penetration}")
        return method.forced_penetration
    if requested is not None:
        return float(requested)
    if method.default_penetration is not None:
        return method.default_penetration
    return scenario_default
