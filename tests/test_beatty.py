import json
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetalab import beatty as bt
from zetalab.cli import run
from zetalab.errors import AmbiguousFloor, Unclassifiable


class TestBeattyPair:
    def test_golden_is_self_shifted(self):
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        # conjugate of the golden ratio is golden + 1
        assert abs(pair.alpha_prime - (bt.GOLDEN + 1.0)) < 1e-12

    def test_sqrt2_conjugate(self):
        pair = bt.BeattyPair.from_alpha(bt.SQRT2)
        assert abs(pair.alpha_prime - (2.0 + bt.SQRT2)) < 1e-12

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            bt.BeattyPair(alpha=2.0, alpha_prime=3.0)
        with pytest.raises(ValueError):
            bt.BeattyPair.from_alpha(0.5)


def _floor(alpha: float, m: int) -> int:
    """floor(m alpha) by beatty_terms on the one-element array [m]."""
    return int(bt.beatty_terms(alpha, np.array([float(m)]))[0])


class TestBeattyTerm:
    def test_golden_prefix(self):
        # OEIS A000201 prefix, recomputed by hand from the closed form
        expected = [1, 3, 4, 6, 8, 9, 11, 12, 14, 16]
        assert [_floor(bt.GOLDEN, m) for m in range(1, 11)] == expected

    def test_exact_integer_product_allowed(self):
        # 2 * 2.5 = 5.0 exactly in floats: no ambiguity
        assert _floor(2.5, 2) == 5

    def test_near_integer_guard(self):
        with pytest.raises(AmbiguousFloor):
            _floor(2.0 + 1e-12, 1)

    def test_vectorised_guard_names_the_multiplier(self):
        # the scans pass multipliers in chunks: the error names m itself,
        # not its position in the chunk
        m = np.arange(131073, 131076, dtype=np.float64)
        with pytest.raises(AmbiguousFloor, match=r"^131073 \* "):
            bt.beatty_terms(2.0 + 2.0 ** -48, m)
        assert list(bt.beatty_terms(bt.GOLDEN, np.arange(1.0, 11.0))) == [
            _floor(bt.GOLDEN, k) for k in range(1, 11)]


class TestRayleigh:
    @pytest.mark.parametrize("alpha", [bt.GOLDEN, bt.SQRT2, bt.SQRT3, math.pi / 2])
    def test_partition_for_irrationals(self, alpha):
        pair = bt.BeattyPair.from_alpha(alpha)
        rep = bt.rayleigh_partition_check(pair, 10000)
        assert rep.is_partition
        assert rep.count_alpha + rep.count_alpha_prime == 10000

    def test_counts_match_densities(self):
        pair = bt.BeattyPair.from_alpha(bt.SQRT2)
        rep = bt.rayleigh_partition_check(pair, 100000)
        assert abs(rep.count_alpha - 100000 / bt.SQRT2) <= 2

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "partition.csv"
        rest = ["--check", "100", "--output", str(out), "--format", "csv"]
        assert run(["beatty", "--alpha", "golden"] + rest) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value,class"
        assert len(lines) == 1  # partition holds, nothing to report
        # alpha = 3/2 is rational: both classes are listed, overlaps first
        assert run(["beatty", "--alpha", "1.5"] + rest) == 0
        capsys.readouterr()
        rep = bt.rayleigh_partition_check(bt.BeattyPair.from_alpha(1.5), 100)
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert rows == [[str(v), "overlap"] for v in rep.overlaps] + [
            [str(v), "gap"] for v in rep.gaps]
        assert rep.overlaps.size and rep.gaps.size

    def test_csv_lists_every_overlap_and_gap(self, tmp_path, capsys):
        out = tmp_path / "partition.csv"
        assert run(["beatty", "--alpha", "1.5", "--check", "10000",
                    "--output", str(out), "--format", "csv"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        classes = [ln.split(",")[1] for ln in out.read_text().strip().splitlines()[1:]]
        assert classes.count("overlap") == summary["overlaps"] == 3333
        assert classes.count("gap") == summary["gaps"] == 3333

    @given(alpha=st.floats(1.05, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, alpha):
        pair = bt.BeattyPair.from_alpha(alpha)
        for a in (pair.alpha, pair.alpha_prime):
            # an exact integer m a among the scanned m makes alpha resonant
            # (rational), and the dissection theorem does not apply
            x = np.arange(1, int(2000 / a) + 3, dtype=np.float64) * a
            assume(not np.any(x == np.floor(x)))
        try:
            rep = bt.rayleigh_partition_check(pair, 2000)
        except AmbiguousFloor:
            return  # a near-integer product: the floors cannot be trusted
        # for any non-resonant alpha the union covers with multiplicity 1
        assert rep.overlaps.size == 0 and rep.gaps.size == 0
        assert rep.count_alpha + rep.count_alpha_prime == 2000


# Exact floors of each named pair (alpha, alpha') from integer square
# roots: floor(n (p + sqrt D) / r) = (n p + isqrt(D n^2)) // r.
_EXACT_FLOORS = {
    bt.GOLDEN: (lambda n: (n + math.isqrt(5 * n * n)) // 2,
                lambda n: (3 * n + math.isqrt(5 * n * n)) // 2),
    bt.SQRT2: (lambda n: math.isqrt(2 * n * n), lambda n: 2 * n + math.isqrt(2 * n * n)),
    bt.SQRT3: (lambda n: math.isqrt(3 * n * n), lambda n: (3 * n + math.isqrt(3 * n * n)) // 2),
}


def _partition_reference(pair, n_max):
    """(count_alpha, count_alpha', overlaps, gaps) by a loop over exact
    floors: the isqrt forms for a named pair, Fraction floors otherwise."""
    floors = _EXACT_FLOORS.get(pair.alpha) or tuple(
        (lambda n, q=Fraction(a): math.floor(n * q)) for a in (pair.alpha, pair.alpha_prime))
    sequences = []
    for floor in floors:
        values, m = [], 1
        while floor(m) <= n_max:
            values.append(floor(m))
            m += 1
        sequences.append(values)
    a, b = (set(v) for v in sequences)
    return (len(sequences[0]), len(sequences[1]), sorted(a & b),
            [n for n in range(1, n_max + 1) if n not in a and n not in b])


class TestRayleighStreaming:
    """rayleigh_partition_check flags the floors of alpha, then of alpha',
    in one byte per integer, and reports what a plain loop over exact
    floors reports."""

    @pytest.mark.parametrize("alpha", sorted(_EXACT_FLOORS))
    @pytest.mark.parametrize("n_max", [1, 2, 3, 1000, 10 ** 5])
    def test_named_pairs_match_the_reference(self, alpha, n_max):
        self._check(bt.BeattyPair.from_alpha(alpha), n_max)

    @pytest.mark.parametrize("alpha, n_max", [
        (1.5, 10 ** 4),  # rational: 3333 overlaps and 3333 gaps
        (math.nextafter(bt.GOLDEN, 2.0), 10 ** 5),  # a literal next to golden
        (2.5, 1000),
    ])
    def test_literals_match_the_reference(self, alpha, n_max):
        rep = self._check(bt.BeattyPair.from_alpha(alpha), n_max)
        if alpha == 1.5:
            assert rep.overlaps.size == rep.gaps.size == 3333

    @staticmethod
    def _check(pair, n_max):
        rep = bt.rayleigh_partition_check(pair, n_max)
        count_a, count_b, overlaps, gaps = _partition_reference(pair, n_max)
        assert (rep.n_max, rep.count_alpha, rep.count_alpha_prime) == (n_max, count_a, count_b)
        assert type(rep.count_alpha) is int and type(rep.count_alpha_prime) is int
        assert rep.overlaps.dtype == rep.gaps.dtype == np.int64
        assert rep.overlaps.tolist() == overlaps
        assert rep.gaps.tolist() == gaps
        return rep

    def test_alphas_refusal_comes_first(self):
        # both sequences of 1.2345 hold a near-integer product below 300001;
        # alpha's floors are all taken first, as check_rayleigh_partition takes them
        pair = bt.BeattyPair.from_alpha(1.2345)
        with pytest.raises(AmbiguousFloor, match=r"^469 \* 5\.264392"):
            bt.check_floors(pair.alpha_prime, 1000)
        messages = []
        for check in (bt.rayleigh_partition_check, bt.check_rayleigh_partition):
            with pytest.raises(AmbiguousFloor) as exc:
                check(pair, 300_001)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == "106000 * 1.2345 is within 1e-09 of an integer"

    def test_memory_is_one_flag_byte_per_integer(self):
        # n_max + 1 flags plus chunk buffers; storing both sequences as
        # int64 with a flag array for each would take about 42 MiB
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        n_max = 4_000_000
        bt.rayleigh_partition_check(pair, 1000)
        tracemalloc.start()
        try:
            rep = bt.rayleigh_partition_check(pair, n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.is_partition
        assert peak <= n_max + 1 + 8 * 2 ** 20


class TestSigmaAlpha:
    def test_swaps_classes(self):
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        # floor(1 * golden) = 1 maps to floor(1 * golden') = 2
        assert bt.sigma_alpha(pair, 1) == 2
        assert bt.sigma_alpha(pair, 2) == 1

    def test_is_involution_on_prefix(self):
        for alpha in (bt.GOLDEN, bt.SQRT2, bt.SQRT3):
            pair = bt.BeattyPair.from_alpha(alpha)
            for n in range(1, 500):
                assert bt.sigma_alpha(pair, bt.sigma_alpha(pair, n)) == n

    def test_validation(self):
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        with pytest.raises(ValueError):
            bt.sigma_alpha(pair, 0)

    @pytest.mark.parametrize("alpha", [bt.GOLDEN, 1.7], ids=["named", "literal"])
    def test_empty_array_gives_empty_array(self, alpha):
        # a literal pair once reduced nf.max() over the empty array and raised
        images = bt.sigma_alpha(bt.BeattyPair.from_alpha(alpha), np.array([], dtype=np.int64))
        assert images.dtype == np.int64 and images.shape == (0,)


class TestExclusionScan:
    def test_cbrt2_passes(self):
        # 2^(1/3) is cubic, so no quadratic with these coefficients can
        # hit it: the finite scan must come back empty
        alpha = 2.0 ** (1.0 / 3.0)
        hits = bt.exclusion_scan(1.0, 1.0, alpha, k_bound=2, primes=[2, 3],
                                 exponent_bound=1)
        assert hits == []

    def test_golden_is_excluded(self):
        # x^2 - x - 1 = 0 arises from k = (1, 1, -1, 0) for every theta,
        # so any quadratic irrational is caught by the scan
        hits = bt.exclusion_scan(1.0, 1.0, bt.GOLDEN, k_bound=1, primes=[2],
                                 exponent_bound=1)
        assert hits
        ks = {w.k for w in hits}
        assert any(k[3] == 0 for k in ks)
        for w in hits:
            assert w.distance < 1e-9
            assert min(abs(r - bt.GOLDEN) for r in w.roots) == w.distance

    def test_root_really_solves_quadratic(self):
        hits = bt.exclusion_scan(1.0, 1.0, bt.SQRT2, k_bound=2, primes=[2],
                                 exponent_bound=1)
        assert hits
        for w in hits[:20]:
            (d1, q1), (d2, q2) = w.theta1, w.theta2
            t1, t2 = d1 * math.log(q1) / (2 * math.pi), d2 * math.log(q2) / (2 * math.pi)
            k1, k2, k3, k4 = w.k
            for x in w.roots:
                resid = (k2 + k4 * t1) * x * x + (k1 - k2 + k3 - k4 * t1 + k4 * t2) * x - k1
                assert abs(resid) < 1e-7

    def test_zero_theta_pair_skipped(self):
        # theta = (0, 0) corresponds to q1 = q2 = 1 and is excluded, so with
        # k4 = 0 forced (k_bound on a pure-k1..k3 grid) golden still shows up
        hits = bt.exclusion_scan(0.0, 0.0, bt.GOLDEN, k_bound=1, primes=[2],
                                 exponent_bound=1)
        assert hits == []  # all thetas are (0,0) when deltas are 0

    def test_validation(self):
        with pytest.raises(ValueError):
            bt.exclusion_scan(1.0, 1.0, 2.5, k_bound=0, primes=[2], exponent_bound=1)


def test_named_irrationals_table():
    assert set(bt.NAMED_IRRATIONALS) == {"golden", "sqrt2", "sqrt3"}
    assert bt.NAMED_IRRATIONALS["golden"] == bt.GOLDEN


def _exact(p, D, r, n):
    return (n * p + math.isqrt(D * n * n)) // r


class TestExactFloors:
    # (alpha, (p, D, r), n): the products where np.floor(n * alpha) was
    # measured wrong below 1e8, with 2 + sqrt 2 then alpha / (alpha - 1)
    CASES = [
        (bt.SQRT2, (0, 2, 1), 93_222_358),
        (bt.BeattyPair.from_alpha(bt.SQRT2).alpha_prime, (2, 2, 1), 38_613_965),
        (bt.BeattyPair.from_alpha(bt.SQRT3).alpha_prime, (3, 3, 2), 58_709_048),
    ]

    @pytest.mark.parametrize("alpha, form, n", CASES)
    def test_named_floors_at_the_measured_failures(self, alpha, form, n):
        exact = _exact(*form, n)
        assert _floor(alpha, n) == exact
        m = np.arange(n - 3, n + 4, dtype=np.float64)
        assert bt.beatty_terms(alpha, m).tolist() == [_exact(*form, int(k)) for k in m]

    def test_float_floor_was_wrong_there(self):
        # the reason for the exact path: the float product rounds across
        # the integer at these n
        assert math.floor(93_222_358 * bt.SQRT2) == _exact(0, 2, 1, 93_222_358) + 1
        old_prime = bt.SQRT2 / (bt.SQRT2 - 1.0)
        assert math.floor(38_613_965 * old_prime) == _exact(2, 2, 1, 38_613_965) - 1

    def test_named_floats_are_correctly_rounded(self):
        import mpmath

        with mpmath.workdps(50):
            for alpha, surds in bt._NAMED_PAIRS.items():
                pair = bt.BeattyPair.from_alpha(alpha)
                assert surds[0].value == alpha
                assert surds[1].value == pair.alpha_prime
                inv = pair.surds[0]
                for s in (*surds, inv):
                    assert s.value == float((s.p + mpmath.sqrt(s.D)) / s.r)
                assert abs(inv.value * alpha - 1.0) < 1e-15

    @given(n=st.integers(1, 10 ** 9), name=st.sampled_from(sorted(bt.NAMED_IRRATIONALS)))
    @settings(max_examples=200, deadline=None)
    def test_array_floors_are_exact(self, n, name):
        pair = bt.BeattyPair.from_alpha(bt.NAMED_IRRATIONALS[name])
        m = np.arange(n, n + 64, dtype=np.float64)
        for alpha, surd in zip((pair.alpha, pair.alpha_prime), pair.surds[1:]):
            assert bt.beatty_terms(alpha, m).tolist() == [surd.floor(int(k)) for k in m]


class TestLiteralRange:
    def test_scalar_floor_refused_from_2_to_the_23(self):
        alpha = 1.37
        below = int(2 ** 23 / alpha)
        assert _floor(alpha, below) == math.floor(below * alpha)
        with pytest.raises(AmbiguousFloor, match="2\\^23"):
            _floor(alpha, below + 1)

    def test_array_floor_names_the_first_multiplier_past_the_range(self):
        alpha = 1.37
        below = int(2 ** 23 / alpha)
        m = np.arange(below - 5, below + 5, dtype=np.float64)
        with pytest.raises(AmbiguousFloor, match=f"^{below + 1} \\* "):
            bt.beatty_terms(alpha, m)
        assert bt.beatty_terms(alpha, m[:6]).tolist() == [math.floor(k * alpha) for k in m[:6]]

    def test_named_floors_have_no_range(self):
        n = 10 ** 12
        assert _floor(bt.GOLDEN, n) == _exact(1, 5, 2, n)

    def test_swap_refused_past_the_range(self):
        pair = bt.BeattyPair.from_alpha(math.pi / 2)
        assert bt.sigma_alpha(pair, bt.sigma_alpha(pair, 10 ** 6)) == 10 ** 6
        with pytest.raises(AmbiguousFloor):
            bt.sigma_alpha(pair, 2 ** 23)
        with pytest.raises(AmbiguousFloor):
            bt.sigma_alpha(pair, np.array([5, 2 ** 23]))
        # n below the range whose image lies beyond it
        with pytest.raises(AmbiguousFloor, match="2\\^23"):
            bt.sigma_alpha(pair, np.arange(2 ** 23 - 60, 2 ** 23 - 10))


def _swap_reference(pair, n):
    """sigma_alpha from its definition with exact floors: search m near
    n / alpha with floor(m alpha) == n, else near n / alpha'."""
    _, a, b = pair.surds
    for first, second in ((a, b), (b, a)):
        base = int(n / first.value)
        for m in range(max(1, base - 2), base + 3):
            if first.floor(m) == n:
                return second.floor(m)
    raise AssertionError(f"{n} in neither class")


class TestSwapArithmetic:
    @given(n=st.integers(1, 10 ** 9), name=st.sampled_from(sorted(bt.NAMED_IRRATIONALS)))
    @settings(max_examples=300, deadline=None)
    def test_scalar_and_array_agree_and_involute(self, n, name):
        pair = bt.BeattyPair.from_alpha(bt.NAMED_IRRATIONALS[name])
        ns = np.arange(n, n + 32)
        images = bt.sigma_alpha(pair, ns)
        assert images.tolist() == [bt.sigma_alpha(pair, int(k)) for k in ns]
        assert bt.sigma_alpha(pair, images).tolist() == ns.tolist()
        assert bt.sigma_alpha(pair, n) == _swap_reference(pair, n)
        assert bt.sigma_alpha(pair, bt.sigma_alpha(pair, n)) == n

    def test_prefix_matches_the_definition(self):
        for alpha in bt.NAMED_IRRATIONALS.values():
            pair = bt.BeattyPair.from_alpha(alpha)
            ns = np.arange(1, 3001)
            assert bt.sigma_alpha(pair, ns).tolist() == [_swap_reference(pair, int(k)) for k in ns]

    def test_numpy_integer_is_a_scalar(self):
        pair = bt.BeattyPair.from_alpha(bt.SQRT2)
        n = np.int64(10 ** 9 + 7)
        assert bt.sigma_alpha(pair, n) == bt.sigma_alpha(pair, int(n))
        assert type(bt.sigma_alpha(pair, n)) is int

    def test_literal_alpha_matches_the_named_one_below_the_range(self):
        # a literal pair one ulp off golden floors as golden does here
        alpha = math.nextafter(bt.GOLDEN, 2.0)
        literal = bt.BeattyPair.from_alpha(alpha)
        assert literal.surds is None
        named = bt.BeattyPair.from_alpha(bt.GOLDEN)
        ns = np.arange(1, 20001)
        assert bt.sigma_alpha(literal, ns).tolist() == bt.sigma_alpha(named, ns).tolist()
        assert bt.sigma_alpha(literal, 777) == bt.sigma_alpha(named, 777)

    def test_rational_alpha_gap_is_unclassifiable(self):
        # alpha = 3/2, alpha' = 3: floor(m 3/2) is 1, 3, 4, 6, ... and
        # floor(3 m) is 3, 6, ..., so 2 lies in neither sequence
        pair = bt.BeattyPair.from_alpha(1.5)
        assert bt.sigma_alpha(pair, 1) == 3
        with pytest.raises(Unclassifiable, match="^2 lies in neither"):
            bt.sigma_alpha(pair, np.arange(1, 20))
        with pytest.raises(Unclassifiable):
            bt.sigma_alpha(pair, 2)

    def test_array_validation(self):
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        with pytest.raises(ValueError):
            bt.sigma_alpha(pair, np.array([3, 0]))
        assert bt.sigma_alpha(pair, np.array([], dtype=np.int64)).size == 0


class TestSwapTable:
    """A named pair answers a scalar n from its table sigma(0..L-1), filled
    by the array path, and so is checked against the exact definition."""

    @pytest.mark.parametrize("name", sorted(bt.NAMED_IRRATIONALS))
    def test_growth_steps_and_the_cap(self, name):
        pair = bt.BeattyPair.from_alpha(bt.NAMED_IRRATIONALS[name])

        def call(n, size):  # sigma(n), then the table size it leaves
            assert bt.sigma_alpha(pair, n) == _swap_reference(pair, n)
            assert pair._swap_table.size == size

        call(1, bt._TABLE_FIRST)
        L = bt._TABLE_FIRST
        while 2 * L <= bt._TABLE_CAP:
            call(L - 1, L)
            call(L, 2 * L)  # L <= n < 2L doubles the table
            call(2 * L - 1, 2 * L)
            if 2 * L < bt._TABLE_CAP:
                call(4 * L, 2 * L)  # n >= 2 (2L): the surds' Surd.floor
            L *= 2
        assert L == bt._TABLE_CAP
        call(bt._TABLE_CAP - 1, bt._TABLE_CAP)
        call(bt._TABLE_CAP, bt._TABLE_CAP)  # the cap: the surds' Surd.floor
        call(10 ** 9, bt._TABLE_CAP)
        table = pair._swap_table
        assert table.dtype == np.int64
        assert table[1:3001].tolist() == [_swap_reference(pair, n) for n in range(1, 3001)]

    def test_a_doubling_holds_one_block_of_temporaries(self):
        # 2^19 -> 2^20 entries: the 8 MiB table plus one block's work
        # arrays; building the whole new half in one pass would take 28 MiB
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        bt.sigma_alpha(pair, 1)
        while pair._swap_table.size < bt._TABLE_CAP // 2:
            bt.sigma_alpha(pair, pair._swap_table.size)  # L <= n < 2L doubles L
        size = pair._swap_table.size
        assert size == 1 << 19
        tracemalloc.start()
        try:
            assert bt.sigma_alpha(pair, size) == _swap_reference(pair, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pair._swap_table.size == 1 << 20
        assert peak <= 16 * 2 ** 20
        for n in (1, size - 1, size, size + bt._CHUNK - 1, size + bt._CHUNK, (1 << 20) - 1):
            assert pair._swap_table.item(n) == _swap_reference(pair, n)

    def test_a_large_first_call_builds_no_table(self):
        pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
        assert bt.sigma_alpha(pair, 500_000) == _swap_reference(pair, 500_000)
        assert pair._swap_table.size == 0
        assert bt.sigma_alpha(pair, bt._TABLE_FIRST) == _swap_reference(pair, bt._TABLE_FIRST)
        assert pair._swap_table.size == 0
        assert bt.sigma_alpha(pair, bt._TABLE_FIRST - 1) == _swap_reference(pair, bt._TABLE_FIRST - 1)
        assert pair._swap_table.size == bt._TABLE_FIRST

    def test_a_literal_pair_has_no_table(self):
        literal = bt.BeattyPair.from_alpha(math.nextafter(bt.GOLDEN, 2.0))
        named = bt.BeattyPair.from_alpha(bt.GOLDEN)
        for n in (1, 777, bt._TABLE_FIRST, 10 ** 5):
            assert bt.sigma_alpha(literal, n) == bt.sigma_alpha(named, n)
        assert literal._swap_table is None

    def test_the_table_is_not_part_of_the_value(self):
        grown, fresh = bt.BeattyPair.from_alpha(bt.SQRT3), bt.BeattyPair.from_alpha(bt.SQRT3)
        for n in range(1, 3 * bt._TABLE_FIRST):
            bt.sigma_alpha(grown, n)
        assert grown._swap_table.size == 4 * bt._TABLE_FIRST
        assert grown == fresh
        assert hash(grown) == hash(fresh)
        assert repr(grown) == repr(fresh)
        assert len({grown, fresh}) == 1

    def test_threads_grow_the_table_safely(self):
        # six threads on two cores, switching often, each mapping sigma
        # over its own range of one pair, the ranges overlapping, while
        # the table doubles from nothing to 2^16 or 2^17 entries under them
        starts = [1 + 10_000 * i for i in range(6)]
        width = 50_000
        reference = [_swap_reference(bt.BeattyPair.from_alpha(bt.GOLDEN), n)
                     for n in range(1, starts[-1] + width)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                pair = bt.BeattyPair.from_alpha(bt.GOLDEN)
                results = {}

                def scan(start):
                    results[start] = [bt.sigma_alpha(pair, n) for n in range(start, start + width)]

                threads = [threading.Thread(target=scan, args=(start,)) for start in starts]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for start in starts:
                    assert results[start] == reference[start - 1 : start - 1 + width]
                # the table published last is whole: a thread whose range
                # ends below 2^16 may publish its 2^16 entries after 2^17
                table = pair._swap_table
                assert table.size in (1 << 16, 1 << 17)
                assert table[1:].tolist()[: len(reference)] == reference[: table.size - 1]
        finally:
            sys.setswitchinterval(interval)


# The scalar exclusion scan the vectorised one replaced, kept as the
# reference: one k vector at a time.
def _quadratic_roots(a, b, c):
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    r = math.sqrt(disc)
    return ((-b + r) / (2.0 * a), (-b - r) / (2.0 * a))


def _exclusion_scan_loop(delta1, delta2, alpha, k_bound, primes, exponent_bound, tol=1e-9):
    import itertools

    qs = bt._rationals_from_primes(primes, exponent_bound)
    thetas1 = [(delta1, q, delta1 * math.log(q) / (2.0 * math.pi)) for q in qs]
    thetas2 = [(delta2, q, delta2 * math.log(q) / (2.0 * math.pi)) for q in qs]
    k_range = range(-k_bound, k_bound + 1)
    out = []
    for (d1, q1, t1), (d2, q2, t2) in itertools.product(thetas1, thetas2):
        if t1 == 0.0 and t2 == 0.0:
            continue
        for k1, k2, k3, k4 in itertools.product(k_range, repeat=4):
            if k1 == 0 and k2 == 0 and k3 == 0 and k4 == 0:
                continue
            roots = _quadratic_roots(k2 + k4 * t1, k1 - k2 + k3 - k4 * t1 + k4 * t2, -float(k1))
            if roots:
                dist = min(abs(r - alpha) for r in roots)
                if dist < tol:
                    w = bt.ExclusionWitness((k1, k2, k3, k4), (d1, q1), (d2, q2), roots, dist)
                    out.append(w)
    return out


@pytest.mark.parametrize("args", [
    (1.0, 1.0, bt.GOLDEN, 3, [2, 3], 1),  # the benchmark's scan
    (1.0, 1.0, bt.SQRT2, 2, [2], 1),
    (0.7, 1.3, bt.SQRT3, 2, [2, 5], 1),
    (1.0, 1.0, 2.0 ** (1.0 / 3.0), 2, [2, 3], 1),
    (0.0, 1.0, bt.GOLDEN, 2, [2], 1),
])
def test_exclusion_scan_matches_the_loop(args):
    # witness for witness: k, thetas, roots and distance bit for bit, in order
    assert bt.exclusion_scan(*args) == _exclusion_scan_loop(*args)
