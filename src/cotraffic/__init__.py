"""Mixed-autonomy grid traffic control: micro-simulation, cooperative
signal/vehicle RL with shared-parameter PPO, classical baselines, and
sustainability metrics."""

__version__ = "0.1.0"

from .env import CooperationMode, EnvConfig, TrafficEnv, max_road_capacity
from .network import (FlowSpec, RoadNetwork, ScenarioSpec, build_grid,
                      grid_scenario, load_scenario)
from .ppo import PpoConfig, ci_profile, paper_profile, train
from .simulation import SimState, build_sim, step

__all__ = [
    "CooperationMode", "EnvConfig", "TrafficEnv", "max_road_capacity",
    "FlowSpec", "RoadNetwork", "ScenarioSpec", "build_grid", "grid_scenario",
    "load_scenario", "PpoConfig", "ci_profile", "paper_profile", "train",
    "SimState", "build_sim", "step",
    "__version__",
]
