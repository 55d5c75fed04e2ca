"""The three benchmark workloads, driven through the public cotraffic API.

Each workload builds its inputs from the benchmark seed and repeats a fixed
*pass* of operations (one operation is one PPO iteration or one episode).
Every pass does identical work, so later passes must reproduce the first
pass's outputs exactly; a difference counts as a failed operation, as does
any output check that fails. Operations run one after another in this
process with ``workers=1`` (a closed loop with one client).
"""
import dataclasses
import math
import random
import time
from pathlib import Path

from cotraffic import metrics, network, policy, ppo, rollout
from cotraffic.env import CooperationMode, EnvConfig, cav_obs_dim, tl_obs_dim

from tracer import Tracer

CHECKPOINT_DIR = Path(__file__).resolve().parent / "checkpoint"
# MlpParams.fingerprint() of the committed checkpoint (see NOTES.md).
CHECKPOINT_FINGERPRINTS = {"tl": "461c7c06187f73cb", "cav": "7a30d79e6b9633ea"}
COTV = EnvConfig(CooperationMode.COTV)
TRAIN_ITERATIONS = 1
TRAIN_SEEDS = 16
EVAL_SEEDS = 4
BASELINE_SEEDS = 2
BASELINE_METHODS = (("baseline-static", 0.0), ("actuated", 0.0),
                    ("max-pressure", 0.0), ("glosa", 1.0))
POOL_WORKERS = 2


class SetupError(RuntimeError):
    """The workload's inputs cannot be built as specified."""


class Recorder:
    """Operation counts, failures and timing samples of one run.

    An *iteration* groups four episodes: a PPO iteration on train-1x1, the
    seed list on eval-1x6, the four controllers on one seed on baseline-1x6.
    Timing samples are kept only while `cal` is set; each is stored as
    (calibrated, wall) seconds, see calibrate.py.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cal = None
        # (calibrated s, wall s, env steps, vehicle steps, agent steps)
        self.iterations = []
        self.pass_ends = []    # len(iterations) at the end of each pass
        self.episodes = []     # (calibrated s, wall s)

    def op(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def factor(self):
        """Calibration factor of the operation that just ended."""
        return self.cal.factor() if self.cal is not None else 1.0

    def iteration(self, calibrated_s, wall_s, env_steps, vehicle_steps,
                  agent_steps):
        if self.cal is not None:
            self.iterations.append((calibrated_s, wall_s, env_steps,
                                    vehicle_steps, agent_steps))

    def end_pass(self):
        if self.cal is not None:
            self.pass_ends.append(len(self.iterations))

    def passes(self):
        """Per pass: (iteration count, column sums of its iterations)."""
        out, begin = [], 0
        for end in self.pass_ends:
            rows = self.iterations[begin:end]
            out.append((len(rows), [sum(col) for col in zip(*rows)]))
            begin = end
        return out

    def episode(self, calibrated_s, wall_s):
        if self.cal is not None:
            self.episodes.append((calibrated_s, wall_s))


def derive_seeds(workload, seed, n):
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(n)]


def vehicle_steps(sim):
    """Active vehicle-seconds of a finished episode: a vehicle counts from
    the second after its insertion until it arrives or the horizon ends.
    Vehicles removed by a collision are left out."""
    done = sum(t.arrival - t.depart for t in sim.completed)
    return done + sum(sim.clock - v.depart_time for v in sim.vehicles.values())


def episode_problems(sim, values):
    """Output checks of one finished episode; `values` are its report
    fields."""
    problems = []
    if not sim.conservation_ok():
        problems.append("vehicle conservation violated")
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite report field")
    return problems


def segments_equal(a, b):
    """True when two collect_episodes results are identical record by record."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.collisions, x.completed, x.ttc_events) != (
                y.collisions, y.completed, y.ttc_events):
            return False
        for kind in ("TL", "CAV"):
            sx, sy = x.segments[kind], y.segments[kind]
            if [len(s) for s in sx] != [len(s) for s in sy]:
                return False
            for rx, ry in zip((r for s in sx for r in s),
                              (r for s in sy for r in s)):
                if (rx.agent_id, rx.action, rx.log_prob, rx.value, rx.reward,
                        rx.done, rx.t) != (ry.agent_id, ry.action, ry.log_prob,
                                           ry.value, ry.reward, ry.done, ry.t):
                    return False
                if rx.obs.tobytes() != ry.obs.tobytes():
                    return False
    return True


def pool_probe(rec, scenario, tl_params, cav_params, seeds, horizon):
    """collect_episodes at workers=1 and workers=2 on identical seeds.

    Returns the two wall times; differing segments count as a failed
    operation.
    """
    walls = []
    results = []
    for workers in (1, POOL_WORKERS):
        t0 = time.perf_counter()
        results.append(rollout.collect_episodes(
            scenario, COTV, tl_params, cav_params, seeds, horizon,
            workers=workers))
        walls.append(time.perf_counter() - t0)
    same = segments_equal(*results)
    rec.op("pool probe", [] if same else
           [f"segments differ between workers=1 and workers={POOL_WORKERS}"])
    return walls


class _Episodes:
    """Shared bookkeeping of the two episode workloads: the first report of
    every (controller, seed) is the reference that later passes must match."""

    def __init__(self):
        self.reference = {}

    def check(self, rec, key, sim, report):
        problems = episode_problems(
            sim, list(report.metrics().values()) + report.travel_times)
        ref = self.reference.setdefault(key, report.metrics())
        if report.metrics() != ref:
            problems.append("report differs from the first run of this seed")
        rec.op(f"episode {key}", problems)

    def travel_time_s(self):
        times = [m["mean_travel_time"] for m in self.reference.values()]
        return sum(times) / len(times)


class EvalWorkload(_Episodes):
    """Greedy cotv on the 1x6 grid with the committed 1x1 checkpoint."""

    name = "eval-1x6"

    def __init__(self, seed):
        super().__init__()
        self.seeds = derive_seeds(self.name, seed, EVAL_SEEDS)

    def setup(self, rec):
        self.scenario = network.grid_scenario("1x6", penetration=1.0)
        params = {}
        for kind in ("tl", "cav"):
            params[kind], _ = policy.load_checkpoint(
                CHECKPOINT_DIR / f"checkpoint_{kind}.npz")
            got = params[kind].fingerprint()
            if got != CHECKPOINT_FINGERPRINTS[kind]:
                raise SetupError(f"{kind} checkpoint fingerprint {got}, "
                                 f"expected {CHECKPOINT_FINGERPRINTS[kind]}")
        self.tl, self.cav = params["tl"], params["cav"]
        if (self.tl.obs_dim != tl_obs_dim(self.scenario.network, COTV.mode)
                or self.cav.obs_dim != cav_obs_dim(COTV.mode)):
            raise SetupError("checkpoint does not fit the 1x6 observations")
        self._episode(rec, self.seeds[0])

    def _episode(self, rec, seed):
        # evaluate_policy's loop body, keeping the agent records (collect)
        # so that agent decisions can be counted
        t0 = time.perf_counter()
        result, sim = rollout.run_episode(
            self.scenario, COTV, self.tl, self.cav, seed, self.scenario.horizon,
            sample=False, collect=True)
        report = metrics.build_episode_report(sim)
        wall = time.perf_counter() - t0
        agents = sum(len(seg) for segs in result.segments.values()
                     for seg in segs)
        calibrated = wall * rec.factor()
        rec.episode(calibrated, wall)
        self.check(rec, seed, sim, report)
        return (calibrated, wall, self.scenario.horizon, vehicle_steps(sim),
                agents)

    def run_pass(self, rec):
        done = [self._episode(rec, seed) for seed in self.seeds]
        rec.iteration(*(sum(x) for x in zip(*done)))

    def pool(self, rec):
        return pool_probe(rec, self.scenario, self.tl, self.cav,
                          self.seeds[:POOL_WORKERS], self.scenario.horizon)


class BaselineWorkload(_Episodes):
    """The four classical controllers on the 1x6 grid."""

    name = "baseline-1x6"

    def __init__(self, seed):
        super().__init__()
        self.seeds = derive_seeds(self.name, seed, BASELINE_SEEDS)

    def setup(self, rec):
        self.scenarios = {m: network.grid_scenario("1x6", penetration=p)
                          for m, p in BASELINE_METHODS}
        self._episode(rec, BASELINE_METHODS[0][0], self.seeds[0])

    def _episode(self, rec, method, seed):
        t0 = time.perf_counter()
        report, sim = rollout.run_baseline_episode(self.scenarios[method],
                                                   method, seed)
        wall = time.perf_counter() - t0
        calibrated = wall * rec.factor()
        rec.episode(calibrated, wall)
        self.check(rec, (method, seed), sim, report)
        # one keep/switch decision per light per second
        return (calibrated, wall, sim.clock, vehicle_steps(sim),
                sim.clock * len(sim.lights))

    def run_pass(self, rec):
        for seed in self.seeds:
            done = [self._episode(rec, m, seed) for m, _ in BASELINE_METHODS]
            rec.iteration(*(sum(x) for x in zip(*done)))

    def pool(self, rec):
        return None


class TrainWorkload:
    """CI-profile PPO on the 1x1 grid: one `train` call of TRAIN_ITERATIONS
    per training seed, TRAIN_SEEDS seeds per pass.

    Several fresh seeds per pass, rather than one seed trained longer, keep
    the work of a pass close to the same for every benchmark seed: how many
    vehicles a young policy keeps on the road varies a lot between seeds.
    The travel time is that of the sampled training episodes, since a young
    policy is not worth a greedy evaluation.
    """

    name = "train-1x1"

    def __init__(self, seed):
        self.seeds = derive_seeds(self.name, seed, TRAIN_SEEDS)
        self.cfg = dataclasses.replace(ppo.ci_profile(),
                                       iterations=TRAIN_ITERATIONS)
        self.reference = {}
        self.result = None

    def setup(self, rec):
        self.scenario = network.grid_scenario("1x1", penetration=1.0)
        self._train(rec, self.seeds[0])

    def _train(self, rec, seed):
        cfg = self.cfg
        walls, factors = [], []
        begun = [time.perf_counter()]

        def progress(entry):
            # time the iteration here so the reference loop stays outside it
            walls.append(time.perf_counter() - begun[0])
            factors.append(rec.factor())
            begun[0] = time.perf_counter()

        episodes = []  # (vehicle steps, mean travel time, problems)

        def on_episode(args, out):
            sim = out[1]
            times = [t.travel_time for t in sim.completed]
            mean_tt = sum(times) / len(times) if times else math.nan
            episodes.append((vehicle_steps(sim), mean_tt,
                             episode_problems(sim, [mean_tt])))
            return 0

        timer = Tracer([(rollout, "run_episode", "rollout.run_episode",
                         on_episode)])
        with timer:
            begun[0] = time.perf_counter()
            result = ppo.train(self.scenario, COTV, cfg, seed=seed, workers=1,
                               progress=progress)
        per_iter = cfg.episodes_per_iter
        for i in range(len(timer.start)):
            wall = timer.end[i] - timer.start[i]
            rec.episode(wall * factors[i // per_iter], wall)
        outputs = (result.tl_params.fingerprint(),
                   result.cav_params.fingerprint(), [e[1] for e in episodes])
        if self.result is None:
            self.result = result
        ref = self.reference.setdefault(seed, outputs)
        for it in range(cfg.iterations):
            if it >= len(result.curves):
                rec.op(f"seed {seed} iteration {it}",
                       ["never ran: training halted early"])
                continue
            entry = result.curves[it]
            mine = episodes[it * per_iter:(it + 1) * per_iter]
            rec.iteration(walls[it] * factors[it], walls[it],
                          per_iter * cfg.horizon, sum(e[0] for e in mine),
                          entry["tl_steps"] + entry["cav_steps"])
            problems = [p for e in mine for p in e[2]]
            losses = [entry.get(k) for k in ("tl_loss", "cav_loss")]
            if not all(v is not None and math.isfinite(v) for v in losses):
                problems.append("non-finite loss")
            if it == cfg.iterations - 1 and outputs != ref:
                problems.append("outputs differ from the first run of this "
                                "seed")
            rec.op(f"seed {seed} iteration {it}", problems)

    def run_pass(self, rec):
        for seed in self.seeds:
            self._train(rec, seed)

    def travel_time_s(self):
        times = [t for ref in self.reference.values() for t in ref[2]]
        return sum(times) / len(times)

    def pool(self, rec):
        seeds = [ppo.episode_seed(self.seeds[0], TRAIN_ITERATIONS, e)
                 for e in range(self.cfg.episodes_per_iter)]
        return pool_probe(rec, self.scenario, self.result.tl_params,
                          self.result.cav_params, seeds, self.cfg.horizon)


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, BaselineWorkload)}
