"""Mixed-autonomy grid traffic control: micro-simulation, cooperative
signal/vehicle RL with shared-parameter PPO, classical baselines, and
sustainability metrics."""

__version__ = "0.1.0"
