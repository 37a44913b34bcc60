"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import itertools
import math
import time

import numpy as np
import pytest

from subcover import (
    CoverageOracle,
    CoverInstance,
    RegularizedInstance,
    Status,
    TruncatedOracle,
    classify_monotone_elements,
    convert_cover,
    distorted_cover,
    distorted_greedy_max,
    double_greedy_max,
    exact_min_cover,
    greedy_cover,
    make_greedy_tightness_instance,
    make_synthetic_summarization,
    random_greedy_max,
    smp_subroutine,
    stochastic_greedy_cover,
    stochastic_max_subroutine,
    stream_cover,
    threshold_greedy_cover,
)

from util import (
    brute_max_all,
    brute_max_subsets,
    brute_min_cover_regularized,
    preferential_attachment_graph,
    random_coverage,
    random_graph,
    stream_event_faults,
)

TOL = 1e-9


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def monotone_corpus(seed, count, sizes=(5, 14), **coverage):
    """count coverage instances of sizes[0]-sizes[1] elements, at a random
    tau fraction of f(U); coverage holds random_coverage's tag settings."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < count:
        n = int(rng.integers(sizes[0], sizes[1] + 1))
        oracle = random_coverage(rng, n, **coverage)
        total = oracle.peek(range(n))
        if total == 0:
            continue
        tau = float(rng.uniform(0.3, 0.95)) * total
        corpus.append(CoverInstance(oracle, tau))
    return corpus


def test_ac1_bicriteria_corpus():
    """Greedy and threshold-greedy value/size bounds on 200 exact-checked instances."""
    started = time.perf_counter()
    failures = 0
    checked = 0
    for inst in monotone_corpus(2027, 200):
        opt = len(exact_min_cover(CoverInstance(inst.oracle.clone(), inst.tau)).solution)
        for eps in (0.05, 0.2, 0.5):
            g = greedy_cover(inst, eps)
            t = threshold_greedy_cover(inst, eps)
            checked += 1
            if not (
                g.status == Status.SOLVED
                and g.f_value >= (1 - eps) * inst.tau - TOL
                and g.size <= math.ceil(math.log(1 / eps) * opt) + 1
                and t.status == Status.SOLVED
                and t.f_value >= (1 - eps) * inst.tau - TOL
                and t.size <= math.ceil((math.log(2 / eps) + 1) * opt) + 1
            ):
                failures += 1
    elapsed = time.perf_counter() - started
    report(
        "AC1 bicriteria corpus",
        failures == 0 and elapsed < 60.0,
        f"{checked} instance/eps cells, {failures} bound violations, {elapsed:.1f}s (< 60s)",
    )


def test_ac2_stochastic_cover_statistics():
    """Solved runs reach (1-eps) tau; 85%+ meet the probabilistic size bound."""
    started = time.perf_counter()
    base = make_synthetic_summarization(400, 200, 0.4, 0.002, 25, seed=0)
    tau = 0.6 * base.peek(range(base.n))
    max_single = max(base.peek((u,)) for u in range(base.n))
    guess = tau / max_single
    eps, delta, alpha = 0.2, 0.1, 0.1
    # optimum size proxy: greedy at eps' has size <= ceil(ln(1/eps') |OPT|)
    probe = greedy_cover(CoverInstance(base.clone(), tau), 0.05)
    opt_proxy = max(1, math.ceil(probe.size / math.log(1 / 0.05)))
    size_bound = (1 + alpha) * math.ceil(math.log(3 / eps)) * opt_proxy
    runs = feasible = sized = 0
    for seed in range(200):
        res = stochastic_greedy_cover(
            CoverInstance(base.clone(), tau), eps, delta, alpha, seed,
            initial_guess=guess,
        )
        if res.status != Status.SOLVED:
            continue
        runs += 1
        if res.f_value >= (1 - eps) * tau - TOL:
            feasible += 1
        if res.size <= size_bound:
            sized += 1
    elapsed = time.perf_counter() - started
    ok = runs == 200 and feasible == runs and sized >= 0.85 * runs and elapsed < 120.0
    report(
        "AC2 stochastic cover statistics",
        ok,
        f"{runs} solved, all-feasible={feasible == runs}, "
        f"size-bound fraction={sized / max(runs, 1):.3f} (bound {size_bound:.1f}), "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_ac3_query_count_ordering():
    """Mean query counts: greedy > thresh (eps=.05); greedy > convert > stoch (eps=.2)."""
    base = make_synthetic_summarization(4000, 2000, 0.4, 0.002, 250, seed=0)
    tau = 0.6 * base.peek(range(base.n))
    max_single = max(base.peek((u,)) for u in range(base.n))
    guess = tau / max_single
    inst = lambda: CoverInstance(base.clone(), tau)

    greedy_small = greedy_cover(inst(), 0.05).queries
    thresh_small = threshold_greedy_cover(inst(), 0.05).queries
    greedy_mid = greedy_cover(inst(), 0.2).queries
    seeds = range(5)
    convert_mid = np.mean([
        convert_cover(stochastic_max_subroutine(0.2), inst(), 0.1, 0.8,
                      seed=s, initial_budget=guess).queries
        for s in seeds
    ])
    stoch_mid = np.mean([
        stochastic_greedy_cover(inst(), 0.2, 0.1, 0.1, s, initial_guess=guess).queries
        for s in seeds
    ])
    gaps = (
        (greedy_small - thresh_small) / greedy_small,
        (greedy_mid - convert_mid) / greedy_mid,
        (convert_mid - stoch_mid) / convert_mid,
    )
    ok = all(gap >= 0.10 for gap in gaps)
    report(
        "AC3 query-count ordering",
        ok,
        f"greedy={greedy_small} > thresh={thresh_small} (gap {gaps[0]:.2f}); "
        f"greedy={greedy_mid} > convert={convert_mid:.0f} (gap {gaps[1]:.2f}) "
        f"> stoch={stoch_mid:.0f} (gap {gaps[2]:.2f}); all gaps >= 0.10",
    )


def test_ac4_tightness_reproduction():
    """Adversarial instance forces >= ceil(log_{1-1/k}(eps)) slice picks."""
    inst = make_greedy_tightness_instance(10, 1000)
    res = greedy_cover(CoverInstance(inst.oracle.clone(), inst.tau), 0.05)
    need = math.ceil(math.log(0.05) / math.log(1 - 1 / 10))
    only_slices = set(res.solution) <= set(inst.slice_ids)
    ratios_ok = True
    details = []
    for eps in (0.05, 0.02, 0.01):
        run = greedy_cover(CoverInstance(inst.oracle.clone(), inst.tau), eps)
        ratio = (run.size / inst.k) / math.log(1 / eps)
        details.append(f"eps={eps}: size/k={run.size / inst.k:.2f} vs ln={math.log(1 / eps):.2f}")
        if abs(ratio - 1) > 0.15:
            ratios_ok = False
    ok = res.size >= need and only_slices and ratios_ok
    report(
        "AC4 tightness reproduction",
        ok,
        f"size={res.size} >= {need}, only-slices={only_slices}; " + "; ".join(details),
    )


def test_ac5_stream_cover_guarantee():
    """Stream cover with the exact subroutine on 100 random cut instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    eps, alpha = 0.5, 0.2
    done = failures = 0
    while done < 100:
        n = int(rng.integers(6, 13))
        oracle = random_graph(rng, n, 0.4)
        best, _ = brute_max_all(oracle)
        if best <= 0:
            continue
        tau = 0.8 * best
        opt = exact_min_cover(CoverInstance(oracle.clone(), tau))
        if opt is None or not opt.solution:
            continue
        done += 1
        res = stream_cover(
            CoverInstance(oracle.clone(), tau), eps, alpha, smp_subroutine("ex"),
            seed=done,
        )
        if not (
            res.status == Status.SOLVED
            and res.f_value >= (1 - eps) * tau - TOL
            and res.size <= (1 + alpha) * (2 / eps + 1) * len(opt.solution)
        ):
            failures += 1
    elapsed = time.perf_counter() - started
    report(
        "AC5 stream cover guarantee",
        failures == 0 and elapsed < 120.0,
        f"100 instances, {failures} violations of value/size bounds, {elapsed:.1f}s (< 120s)",
    )


def test_ac6_subroutine_ordering():
    """EX ~ F-EX > DG > RG on a 4039-node hub-heavy cut instance.

    The named social-network dataset is not shipped (no downloaders), so a
    deterministic preferential-attachment stand-in with the same vertex count
    and edge density is used; set the pass-grid constants below.
    """
    base = preferential_attachment_graph(4039, 22, seed=7)
    reference = base.peek(double_greedy_max(base.clone(), seed=0))
    tau = 0.9 * reference
    eps, alpha, guess = 0.5, 0.5, 1.45
    values = {}
    for kind in ("ex", "fex"):
        res = stream_cover(
            CoverInstance(base.clone(), tau), eps, alpha,
            smp_subroutine(kind, timeout_ms=240000), seed=3, initial_guess=guess,
        )
        assert res.status == Status.SOLVED, f"{kind} did not solve: {res.status}"
        if kind == "ex":
            # the search's whole path on this graph: any change to its frame
            # order, refresh rule or bound moves the query count
            assert (res.queries, res.f_value, res.size) == (778958, 21892.0, 124)
        values[kind] = res.f_value
    for kind in ("dg", "rg"):
        runs = [
            stream_cover(
                CoverInstance(base.clone(), tau), eps, alpha,
                smp_subroutine(kind), seed=seed, initial_guess=guess,
            ).f_value
            for seed in range(5)
        ]
        values[kind] = float(np.mean(runs))
    closeness = abs(values["ex"] - values["fex"]) / max(values["ex"], values["fex"])
    ok = (
        closeness <= 0.02
        and min(values["ex"], values["fex"]) > values["dg"]
        and values["dg"] > values["rg"]
    )
    report(
        "AC6 subroutine ordering",
        ok,
        f"EX={values['ex']:.0f} ~ F-EX={values['fex']:.0f} (diff {closeness:.3f}) "
        f"> DG={values['dg']:.0f} > RG={values['rg']:.0f}",
    )


def test_ac7_distorted_greedy_guarantee():
    """Distorted greedy beats (1-eps) g(X) - ln(1/eps) c(X) for every |X| <= kappa."""
    rng = np.random.default_rng(707)
    eps = 0.2
    failures = 0
    for index in range(100):
        n = int(rng.integers(6, 11))
        oracle = random_coverage(rng, n)
        costs = rng.uniform(0.0, 0.3, size=n)
        kappa = int(rng.integers(2, 4))
        inst = RegularizedInstance(oracle, costs)
        sol = distorted_greedy_max(inst, kappa, eps)
        achieved = oracle.peek(sol) - inst.cost(sol)
        for size in range(kappa + 1):
            for X in itertools.combinations(range(n), size):
                bound = (1 - eps) * oracle.peek(X) - math.log(1 / eps) * inst.cost(X)
                if achieved < bound - TOL:
                    failures += 1
                    break
            else:
                continue
            break
    report(
        "AC7 distorted greedy guarantee",
        failures == 0,
        f"100 instances enumerated, {failures} violations",
    )


def test_ac8_regularized_cover_conversion():
    """Cover conversion of the distorted maximizer: value and size bounds."""
    rng = np.random.default_rng(808)
    eps, alpha = 0.2, 0.1
    scale = (1 - eps) / math.log(1 / eps)
    solved = failures = 0
    while solved < 50:
        n = int(rng.integers(6, 11))
        oracle = random_coverage(rng, n)
        costs = rng.uniform(0.0, 0.2, size=n)
        probe = RegularizedInstance(oracle, costs)
        best = max(
            oracle.peek(X) - probe.cost(X)
            for size in range(n + 1)
            for X in itertools.combinations(range(n), size)
        )
        if best <= 0:
            continue
        tau = float(rng.uniform(0.4, 0.75)) * best
        inst = RegularizedInstance(oracle, costs, tau=tau)
        opt = brute_min_cover_regularized(inst)
        if opt is None or len(opt) < 2:
            continue
        solved += 1
        res = distorted_cover(inst, eps, alpha)
        value = oracle.peek(res.solution) - scale * inst.cost(res.solution)
        size_bound = math.ceil((1 + alpha) * math.log(1 / eps) * len(opt) + TOL)
        if not (
            res.status == Status.SOLVED
            and value >= (1 - eps) * tau - TOL
            and res.size <= size_bound
        ):
            failures += 1
    report(
        "AC8 regularized cover conversion",
        failures == 0,
        f"50 solvable instances, {failures} violations",
    )


def test_ac9_expectation_guarantees():
    """Sampled-greedy, random-greedy and double-greedy means vs brute force."""
    rng = np.random.default_rng(909)
    kappa, eps = 3, 0.2
    stoch_ok = []
    for _ in range(3):
        oracle = random_coverage(rng, 15, max_tags=20)
        opt, _ = brute_max_subsets(oracle, kappa)
        if opt == 0:
            continue
        mean = np.mean([
            oracle.peek(stochastic_max_subroutine(eps)(oracle.clone(), kappa, s))
            for s in range(300)
        ])
        stoch_ok.append(mean >= (1 - eps) * opt * 0.98)
    rg_ok, dg_ok = [], []
    for _ in range(3):
        oracle = random_graph(rng, int(rng.integers(5, 11)), 0.5)
        cap_opt, _ = brute_max_subsets(oracle, 2)
        full_opt, _ = brute_max_all(oracle)
        if cap_opt > 0:
            mean = np.mean([
                oracle.peek(random_greedy_max(oracle.clone(), 2, seed=s))
                for s in range(300)
            ])
            rg_ok.append(mean >= (cap_opt / math.e) * 0.97)
        if full_opt > 0:
            mean = np.mean([
                oracle.peek(double_greedy_max(oracle.clone(), seed=s))
                for s in range(300)
            ])
            dg_ok.append(mean >= (full_opt / 2) * 0.97)
    ok = all(stoch_ok) and all(rg_ok) and all(dg_ok) and stoch_ok and rg_ok and dg_ok
    report(
        "AC9 expectation guarantees",
        ok,
        f"sampled-greedy {sum(stoch_ok)}/{len(stoch_ok)}, "
        f"random-greedy {sum(rg_ok)}/{len(rg_ok)}, "
        f"double-greedy {sum(dg_ok)}/{len(dg_ok)} instances passed",
    )


def _diminishing(oracle, a, b, x):
    return (
        oracle.peek(a | {x}) - oracle.peek(a)
        >= oracle.peek(b | {x}) - oracle.peek(b) - TOL
    )


def test_ac10_invariant_suites():
    """Structural properties exhaustively (n <= 6) and on random instances."""
    rng = np.random.default_rng(1010)
    # exhaustive n <= 6 over coverage / cut / truncated
    small = [
        random_coverage(rng, 5),
        random_graph(rng, 6, 0.5, weighted=True),
        TruncatedOracle(random_coverage(rng, 5), 3.0),
    ]
    exhaustive_ok = True
    for oracle in small:
        n = oracle.n
        for b_size in range(n):
            for b in itertools.combinations(range(n), b_size):
                b = set(b)
                for a_size in range(len(b) + 1):
                    for a in itertools.combinations(sorted(b), a_size):
                        if oracle.monotone and oracle.peek(a) > oracle.peek(b) + TOL:
                            exhaustive_ok = False
                        for x in range(n):
                            if x not in b and not _diminishing(oracle, set(a), b, x):
                                exhaustive_ok = False
    # 1000 random spot checks at 6 < n <= 12
    random_ok = True
    for _ in range(1000):
        n = int(rng.integers(7, 13))
        oracle = (
            random_coverage(rng, n)
            if rng.random() < 0.5
            else random_graph(rng, n, 0.4, weighted=True)
        )
        if rng.random() < 0.3:
            oracle = TruncatedOracle(oracle, float(rng.uniform(1.0, 6.0)))
        ids = rng.permutation(n)
        b = {int(v) for v in ids[: rng.integers(1, n)]}
        a = {int(v) for v in list(b)[: rng.integers(0, len(b) + 1)]}
        outside = [int(v) for v in range(n) if v not in b]
        if not outside:
            continue
        x = outside[int(rng.integers(len(outside)))]
        if not _diminishing(oracle, a, b, x):
            random_ok = False
        if oracle.monotone and oracle.peek(a) > oracle.peek(b) + TOL:
            random_ok = False
    # graph cut is non-monotone on any graph with an edge
    cut = random_graph(np.random.default_rng(4), 6, 0.6)
    nonmono_ok = cut.peek(range(6)) < max(cut.peek([v]) for v in range(6))
    # bucket discipline inside the stream solver
    events = []
    oracle = random_graph(rng, 10, 0.5)
    best, _ = brute_max_all(oracle)
    stream_cover(
        CoverInstance(oracle, 0.8 * best), 0.5, 0.3, smp_subroutine("ex"),
        on_event=lambda kind, p: events.append((kind, p)),
    )
    # one "store" per stored element with the buckets checked after each,
    # then one "pass" whose stored set is the union of the stores
    faults, passes = stream_event_faults(events, math.ceil(2 / 0.5))
    bucket_ok = passes > 0 and not faults
    # disjoint-part lower bound: max_i f(A_i u B) >= (1 - 1/m) f(B)
    claim_ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 11))
        oracle = random_graph(rng, n, 0.4, weighted=True)
        m = int(rng.integers(2, 5))
        parts = [set() for _ in range(m)]
        for idx, v in enumerate(rng.permutation(n)[: rng.integers(0, n + 1)]):
            parts[idx % m].add(int(v))
        b = {int(v) for v in rng.permutation(n)[: rng.integers(0, n + 1)]}
        if max(oracle.peek(p | b) for p in parts) < (1 - 1 / m) * oracle.peek(b) - TOL:
            claim_ok = False
    ok = exhaustive_ok and random_ok and nonmono_ok and bucket_ok and claim_ok
    report(
        "AC10 invariant suites",
        ok,
        f"exhaustive={exhaustive_ok}, random={random_ok}, cut-nonmonotone={nonmono_ok}, "
        f"buckets={bucket_ok}, disjoint-part bound={claim_ok}",
    )


def test_ac12_bicriteria_with_proven_optima():
    """Greedy, threshold-greedy and stochastic-greedy bounds (those of AC1 and
    AC2) on 40 instances of 25-40 elements, against the optimum size that
    exact_min_cover proves."""
    started = time.perf_counter()
    delta, alpha = 0.1, 0.1
    opts = []
    failures = runs = sized = 0
    corpus = monotone_corpus(2031, 40, (25, 40), max_tags=60, max_per_element=5)
    for seed, inst in enumerate(corpus):
        opt = len(exact_min_cover(CoverInstance(inst.oracle.clone(), inst.tau)).solution)
        opts.append(opt)
        for eps in (0.05, 0.2, 0.5):
            g = greedy_cover(inst, eps)
            t = threshold_greedy_cover(inst, eps)
            if not (
                g.status == Status.SOLVED
                and g.f_value >= (1 - eps) * inst.tau - TOL
                and g.size <= math.ceil(math.log(1 / eps) * opt) + 1
                and t.status == Status.SOLVED
                and t.f_value >= (1 - eps) * inst.tau - TOL
                and t.size <= math.ceil((math.log(2 / eps) + 1) * opt) + 1
            ):
                failures += 1
            s = stochastic_greedy_cover(inst, eps, delta, alpha, seed)
            runs += 1
            if s.status != Status.SOLVED or s.f_value < (1 - eps) * inst.tau - TOL:
                failures += 1
            elif s.size <= (1 + alpha) * math.ceil(math.log(3 / eps)) * opt:
                sized += 1
    elapsed = time.perf_counter() - started
    report(
        "AC12 bicriteria with proven optima",
        failures == 0 and sized >= 0.85 * runs and elapsed < 60.0,
        f"OPT {min(opts)}-{max(opts)}, {failures} bound violations, stoch size-bound "
        f"fraction={sized / runs:.3f} of {runs}, {elapsed:.1f}s (< 60s)",
    )
