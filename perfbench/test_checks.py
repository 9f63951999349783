"""Tests of the benchmark's own code: the percentile rule and the output
checkers. Run with: python3 -m unittest discover -s perfbench"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import run  # noqa: E402

FDS = checks.parse_fds("A -> B; B -> C")

INPUT = checks.read_table(
    "#id,#weight,A,B,C\n"
    "1,1,1,1,1\n"
    "2,2,1,1,2\n"
    "3,1,1,2,1\n"
    "4,1,5,5,5\n")


def table(text):
    return checks.read_table("#id,#weight,A,B,C\n" + text)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(checks.percentile(xs, 50), 50)
        self.assertEqual(checks.percentile(xs, 90), 90)
        self.assertEqual(checks.percentile(xs, 99), 99)
        self.assertEqual(checks.percentile([7.0], 99), 7.0)

    def test_tail_has_ten_samples_beyond(self):
        # 120 stream requests: p90 leaves 12 beyond, p99 only 1.
        self.assertEqual(checks.tail_level(120), 90.0)
        # 2400 small requests: p99 leaves 24 beyond, p99.9 only 2.
        self.assertEqual(checks.tail_level(2400), 99.0)
        self.assertEqual(checks.tail_level(10000), 99.9)
        # 913 samples: p99 leaves 9 beyond, one short.
        self.assertEqual(checks.beyond(913, 99), 9)
        self.assertEqual(checks.tail_level(913), 90.0)
        self.assertIsNone(checks.tail_level(99))
        for n in range(1, 3000, 7):
            p = checks.tail_level(n)
            if p is not None:
                self.assertGreaterEqual(checks.beyond(n, p), 10)

    def test_summary(self):
        xs = [float(i) for i in range(1, 121)]
        n, med, p, tail = checks.summary(xs)
        self.assertEqual((n, med, p, tail), (120, 60.5, 90.0, 108.0))


class Checkers(unittest.TestCase):
    def test_fd_parsing(self):
        self.assertEqual(checks.parse_fds("facility -> city; facility room -> floor"),
                         [(("facility",), ("city",)),
                          (("facility", "room"), ("floor",))])

    def test_optimal_s_repair_accepted(self):
        out = table("2,2,1,1,2\n4,1,5,5,5\n")
        self.assertEqual(checks.check_s_repair(FDS, INPUT, out, 2.0), [])
        self.assertEqual(checks.check_s_repair(FDS, INPUT, out, "2"), [])

    def test_wrong_s_repairs_rejected(self):
        # Deleting tuple 3 fixes A -> B, but B -> C still fails (1 vs 2).
        partial = table("1,1,1,1,1\n2,2,1,1,2\n4,1,5,5,5\n")
        self.assertTrue(checks.check_s_repair(FDS, INPUT, partial, 1.0))
        consistent = table("2,2,1,1,2\n4,1,5,5,5\n")
        self.assertTrue(checks.check_s_repair(FDS, INPUT, consistent, 1.0))
        self.assertTrue(checks.check_s_repair(FDS, INPUT, consistent, "2.5"))
        modified = table("2,2,1,1,2\n4,1,5,5,6\n")
        self.assertTrue(checks.check_s_repair(FDS, INPUT, modified, 2.0))
        reweighted = table("2,1,1,1,2\n4,1,5,5,5\n")
        self.assertTrue(checks.check_s_repair(FDS, INPUT, reweighted, 2.0))
        inconsistent = table("1,1,1,1,1\n3,1,1,2,1\n4,1,5,5,5\n")
        self.assertTrue(checks.check_s_repair(FDS, INPUT, inconsistent, 2.0))

    def test_u_repair(self):
        good = table("1,1,1,1,2\n2,2,1,1,2\n3,1,9,2,1\n4,1,5,5,5\n")
        self.assertEqual(checks.check_u_repair(FDS, INPUT, good, 2.0), [])
        self.assertTrue(checks.check_u_repair(FDS, INPUT, good, 3.0))
        dropped = table("1,1,1,1,2\n2,2,1,1,2\n4,1,5,5,5\n")
        self.assertTrue(checks.check_u_repair(FDS, INPUT, dropped, 2.0))
        inconsistent = table("1,1,1,1,1\n2,2,1,1,2\n3,1,1,1,2\n4,1,5,5,5\n")
        self.assertTrue(checks.check_u_repair(FDS, INPUT, inconsistent, 1.0))
        reweighted = table("1,1,1,1,2\n2,1,1,1,2\n3,1,1,1,2\n4,1,5,5,5\n")
        self.assertTrue(checks.check_u_repair(FDS, INPUT, reweighted, 2.0))

    def test_csv_quoting_and_defaults(self):
        t = checks.read_table('A,B\n"x,y",1\n"say ""hi""",2\n')
        self.assertEqual(t.rows, {1: (1.0, ("x,y", "1")), 2: (1.0, ('say "hi"', "2"))})

    def test_replay(self):
        base = table("1,1,1,1,1\n2,1,2,2,2\n")
        deltas = ('{"op":"insert","tuple":["3",3,"3"],"id":3}\n'
                  '{"op":"delete","id":1}\n')
        t = run.replay(base, [deltas])
        self.assertEqual(t.rows, {2: (1.0, ("2", "2", "2")), 3: (1.0, ("3", "3", "3"))})


if __name__ == "__main__":
    unittest.main()
