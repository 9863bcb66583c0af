"""The benchmark's own arithmetic: percentiles, the serving schedule and
span self times. Kept free of I/O so test_stats.py can pin it."""

import bisect
import math
import random
import statistics

# Frozen serving load, chosen once from the closed-loop capacity of
# tsnn_serve (2 workers, max_batch 8, this request mix) on a 4-core
# AVX-512 host, 700-850 req/s: about 25% and 40% of it. At 60% the
# backlog swings with the host's other load and the open-loop p50 moved
# by 80% between runs. They stay fixed so later changes are judged at the
# same offered load.
CAPACITY_RPS = 780.0
OPEN_LOW_RPS = 200.0
OPEN_HIGH_RPS = 300.0
CLOSED_CONCURRENCY = 16
# p99 needs at least ten samples beyond it, in every round. With three
# rounds (3000 samples per open phase) the open-loop p99 spread up to 0.29
# (IQR / median over ten seeds) on a busy host; five rounds give 5000.
MIN_PHASE_REQUESTS = 1000
PHASE_ROUNDS = 5
# The closed-loop-only schedule of the untraced run: this many rounds of
# closed requests, together about CLOSED_SHARE of `seconds` at the frozen
# capacity (the rest goes to set-up samples and the output check).
CLOSED_ROUNDS = 8
CLOSED_SHARE = 0.9

SERVE_MODELS = ("s-mnist", "s-cifar10")
SERVE_CODINGS = ("rate", "burst", "ttfs", "ttas(5)")


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    sample at or below it. A failed operation enters as math.inf, so it
    counts as over any latency limit."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)


def make_schedule(seed, seconds, images, open_loop=True):
    """Deterministic serving schedule for one seed: a list of phases, each
    (name, kind, concurrency, requests) with requests as
    (offset_ns, model, coding, image, seed) tuples, image < `images`.

    A closed warm-up phase touches every (model, coding) pair first, so
    lazily built kernel caches are not charged to the measured phases.
    With `open_loop`, open_low, open_high and closed then run in
    PHASE_ROUNDS interleaved rounds, so a burst of outside load on the host
    lands on every phase alike. Open phases are Poisson at a frozen rate
    and each round holds at least MIN_PHASE_REQUESTS requests, so every
    round's p99 has ten samples beyond it; the closed phase keeps a fixed
    concurrency. Beyond those minimums each name gets its share of
    `seconds` (open_low 50%, open_high 30%, closed 12% at the frozen
    capacity). Without `open_loop`, CLOSED_ROUNDS closed rounds follow the
    warm-up instead, sharing CLOSED_SHARE of `seconds`."""
    rng = random.Random(seed)

    def request(offset_ns):
        return (offset_ns, rng.choice(SERVE_MODELS), rng.choice(SERVE_CODINGS),
                rng.randrange(images), rng.getrandbits(63))

    warmup = [(0, m, c, rng.randrange(images), rng.getrandbits(63))
              for m in SERVE_MODELS for c in SERVE_CODINGS for _ in range(4)]
    phases = [("warmup", "closed", CLOSED_CONCURRENCY, warmup)]
    if not open_loop:
        count = max(CLOSED_CONCURRENCY, int(CAPACITY_RPS * seconds *
                                            CLOSED_SHARE / CLOSED_ROUNDS))
        for _ in range(CLOSED_ROUNDS):
            phases.append(("closed", "closed", CLOSED_CONCURRENCY,
                           [request(0) for _ in range(count)]))
        return phases
    for _ in range(PHASE_ROUNDS):
        for name, rate, share in (("open_low", OPEN_LOW_RPS, 0.5),
                                  ("open_high", OPEN_HIGH_RPS, 0.3)):
            count = max(MIN_PHASE_REQUESTS,
                        int(rate * seconds * share / PHASE_ROUNDS))
            t = 0.0
            reqs = []
            for _ in range(count):
                t += rng.expovariate(rate)
                reqs.append(request(int(t * 1e9)))
            phases.append((name, "open", 1, reqs))
        count = max(CLOSED_CONCURRENCY,
                    int(CAPACITY_RPS * seconds * 0.12 / PHASE_ROUNDS))
        phases.append(("closed", "closed", CLOSED_CONCURRENCY,
                       [request(0) for _ in range(count)]))
    return phases


def max_queue_depth(waits):
    """Most requests waiting at once, seen at each submit time t: those
    with submit <= t < start. `waits` holds one (submit, start) pair per
    request, start >= submit; 0 when empty."""
    submits = sorted(w[0] for w in waits)
    starts = sorted(w[1] for w in waits)
    return max((bisect.bisect_right(submits, t) -
                bisect.bisect_right(starts, t) for t in submits), default=0)


def schedule_text(phases):
    lines = []
    for index, (name, kind, concurrency, reqs) in enumerate(phases):
        lines.append(f"P {index} {name} {kind} {concurrency}")
        for offset, model, coding, image, seed in reqs:
            lines.append(f"Q {index} {offset} {model} {coding} {image} {seed}")
    return "\n".join(lines) + "\n"


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that child spans cover (overlapping children counted once).

    `spans` maps index -> (parent, start_ns, end_ns); returns index ->
    self ns."""
    children = {}
    for index, (parent, start, end) in spans.items():
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for index, (_, start, end) in spans.items():
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[index] = (end - start) - covered
    return out
