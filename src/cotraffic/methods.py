"""Experiment method roster and their configuration constraints."""
from dataclasses import dataclass

from .env import CooperationMode, EnvConfig
from .network import ConfigError


@dataclass(frozen=True)
class MethodSpec:
    name: str
    rl: bool
    env_cfg: EnvConfig = None
    tl_plan: str = None           # non-learned light plan when lights aren't agents
    forced_penetration: float = None
    default_penetration: float = None
    notes: str = ""


METHODS = {
    "baseline-static": MethodSpec("baseline-static", rl=False,
                                  default_penetration=0.0),
    "actuated": MethodSpec("actuated", rl=False, default_penetration=0.0),
    "max-pressure": MethodSpec("max-pressure", rl=False,
                               default_penetration=0.0),
    "glosa": MethodSpec("glosa", rl=False, forced_penetration=1.0,
                        notes="speed advisory controls every vehicle; paired "
                              "with the actuated light plan"),
    "cotv": MethodSpec("cotv", rl=True,
                       env_cfg=EnvConfig(CooperationMode.COTV)),
    "cotv-star": MethodSpec("cotv-star", rl=True,
                            env_cfg=EnvConfig(CooperationMode.COTV_STAR)),
    "i-cotv": MethodSpec("i-cotv", rl=True,
                         env_cfg=EnvConfig(CooperationMode.I_COTV)),
    "m-cotv": MethodSpec("m-cotv", rl=True,
                         env_cfg=EnvConfig(CooperationMode.M_COTV)),
    "flowcav": MethodSpec("flowcav", rl=True,
                          env_cfg=EnvConfig(CooperationMode.I_COTV,
                                            tl_agents=False, cav_agents=True),
                          tl_plan="static", default_penetration=1.0,
                          notes="vehicle agents only, lights on the fixed plan"),
    "presslight": MethodSpec("presslight", rl=True,
                             env_cfg=EnvConfig(CooperationMode.I_COTV,
                                               tl_agents=True, cav_agents=False),
                             forced_penetration=0.0,
                             notes="light agents only on pressure state/reward; "
                                   "trained with PPO here rather than the "
                                   "original DQN"),
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
