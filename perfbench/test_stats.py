"""Tests of the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import random
import unittest

import stats

IMAGES = 64


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(stats.percentile(values, 5), 15)
        self.assertEqual(stats.percentile(values, 30), 20)
        self.assertEqual(stats.percentile(values, 40), 20)
        self.assertEqual(stats.percentile(values, 50), 35)
        self.assertEqual(stats.percentile(values, 100), 50)

    def test_p99_of_a_thousand_leaves_ten_beyond(self):
        values = list(range(1, 1001))
        p99 = stats.percentile(values, 99)
        self.assertEqual(p99, 990)
        self.assertEqual(sum(1 for v in values if v > p99), 10)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50),
                         stats.percentile([1, 2, 3], 50))

    def test_failures_count_as_over_any_limit(self):
        values = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(stats.percentile(values, 98), 1.0)
        self.assertEqual(stats.percentile(values, 99), math.inf)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = stats.make_schedule(7, 20, IMAGES)
        b = stats.make_schedule(7, 20, IMAGES)
        self.assertEqual(a, b)
        self.assertEqual(stats.schedule_text(a), stats.schedule_text(b))

    def test_seed_changes_arrivals_and_mix(self):
        a = stats.make_schedule(7, 20, IMAGES)
        b = stats.make_schedule(8, 20, IMAGES)
        self.assertNotEqual([r for p in a for r in p[3]],
                            [r for p in b for r in p[3]])

    def test_phases_and_sizes(self):
        phases = stats.make_schedule(3, 20, IMAGES)
        self.assertEqual([p[0] for p in phases],
                         ["warmup"] + ["open_low", "open_high", "closed"] *
                         stats.PHASE_ROUNDS)
        for name, kind, concurrency, reqs in phases[1:]:
            if kind == "open":
                self.assertGreaterEqual(len(reqs), stats.MIN_PHASE_REQUESTS)
                offsets = [r[0] for r in reqs]
                self.assertEqual(offsets, sorted(offsets))
            else:
                self.assertEqual(concurrency, stats.CLOSED_CONCURRENCY)
        # Warm-up touches every (model, coding) pair.
        pairs = {(r[1], r[2]) for r in phases[0][3]}
        self.assertEqual(len(pairs),
                         len(stats.SERVE_MODELS) * len(stats.SERVE_CODINGS))

    def test_closed_only_schedule(self):
        phases = stats.make_schedule(3, 20, IMAGES, open_loop=False)
        self.assertEqual([p[0] for p in phases],
                         ["warmup"] + ["closed"] * stats.CLOSED_ROUNDS)
        sizes = {len(p[3]) for p in phases[1:]}
        self.assertEqual(len(sizes), 1)
        self.assertGreaterEqual(sizes.pop(), stats.CLOSED_CONCURRENCY)
        self.assertEqual(phases[0], stats.make_schedule(3, 20, IMAGES)[0])

    def test_open_rate_matches_frozen_rate(self):
        name, _, _, reqs = stats.make_schedule(11, 20, IMAGES)[1]
        self.assertEqual(name, "open_low")
        rate = len(reqs) / (reqs[-1][0] / 1e9)
        self.assertAlmostEqual(rate / stats.OPEN_LOW_RPS, 1.0, delta=0.1)

    def test_requests_stay_in_range(self):
        for _, _, _, reqs in stats.make_schedule(5, 20, IMAGES):
            for _, model, coding, image, seed in reqs:
                self.assertIn(model, stats.SERVE_MODELS)
                self.assertIn(coding, stats.SERVE_CODINGS)
                self.assertTrue(0 <= image < IMAGES)
                self.assertTrue(0 <= seed < 2 ** 63)


class QueueDepthTest(unittest.TestCase):
    def brute_force(self, waits):
        return max((sum(1 for s, st in waits if s <= t < st)
                    for t, _ in waits), default=0)

    def test_overlapping_waits(self):
        waits = [(0, 10), (2, 5), (3, 12), (6, 7), (11, 11)]
        self.assertEqual(stats.max_queue_depth(waits), 3)
        self.assertEqual(stats.max_queue_depth(waits), self.brute_force(waits))

    def test_a_request_that_starts_at_once_never_waits(self):
        self.assertEqual(stats.max_queue_depth([(5, 5), (5, 5)]), 0)
        self.assertEqual(stats.max_queue_depth([(0, 5), (5, 6)]), 1)

    def test_empty(self):
        self.assertEqual(stats.max_queue_depth([]), 0)

    def test_matches_definition_on_random_waits(self):
        rng = random.Random(4)
        for _ in range(50):
            waits = []
            for _ in range(rng.randrange(1, 30)):
                submit = rng.randrange(100)
                waits.append((submit, submit + rng.randrange(20)))
            self.assertEqual(stats.max_queue_depth(waits),
                             self.brute_force(waits))


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times({0: (-1, 10, 30)}), {0: 20})

    def test_children_are_subtracted(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 30), 2: (0, 50, 60),
                 3: (1, 12, 20)}
        got = stats.self_times(spans)
        self.assertEqual(got[0], 100 - 20 - 10)
        self.assertEqual(got[1], 20 - 8)
        self.assertEqual(got[2], 10)
        self.assertEqual(got[3], 8)

    def test_overlapping_children_are_counted_once(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 50), 2: (0, 40, 70)}
        self.assertEqual(stats.self_times(spans)[0], 100 - 60)

    def test_child_outside_parent_is_clipped(self):
        spans = {0: (-1, 0, 100), 1: (0, 90, 120)}
        self.assertEqual(stats.self_times(spans)[0], 90)


if __name__ == "__main__":
    unittest.main()
