/**
 * @file
 * Tests for the utility layer: RNG determinism and distribution sanity,
 * statistics helpers, the sorted key/value container, and table output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <sstream>

#include "util/bucketed_kv.h"
#include "util/heap.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace phoenix::util;

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
    Rng c(124);
    EXPECT_NE(Rng(123)(), c());
}

TEST(Rng, SplitmixMixIsStatelessAndMatchesStep)
{
    // The stateless finalizer mixes exactly like one splitmix64 step.
    uint64_t state = 42;
    const uint64_t stepped = splitmix64(state);
    EXPECT_EQ(splitmix64Mix(42), stepped);
    EXPECT_EQ(splitmix64Mix(42), splitmix64Mix(42));
    EXPECT_NE(splitmix64Mix(42), splitmix64Mix(43));
}

TEST(Rng, CellSeedHasNoAdditiveStructure)
{
    // Regression for the old sweep seeding (base + t*7919 +
    // rate*1000): additive formulas let different cells — and sweeps
    // with different bases — land on the same seed. cellSeed must
    // separate all of these.
    std::set<uint64_t> seeds;
    size_t cells = 0;
    for (uint64_t base : {100ull, 500ull, 507ull, 900ull}) {
        for (uint64_t rate_bits : {1ull, 2ull, 4046ull, 8092ull}) {
            for (uint64_t t = 0; t < 100; ++t) {
                seeds.insert(cellSeed(base, rate_bits, t));
                ++cells;
            }
        }
    }
    EXPECT_EQ(seeds.size(), cells);

    // Coordinate order matters: (a, b) and (b, a) are different cells.
    EXPECT_NE(cellSeed(1, 2, 3), cellSeed(1, 3, 2));
    // And the arity matters too.
    EXPECT_NE(cellSeed(1, 2), cellSeed(1, 2, 0));
}

TEST(Rng, DoubleBitsIsExact)
{
    EXPECT_EQ(doubleBits(0.5), 0x3fe0000000000000ull);
    EXPECT_NE(doubleBits(0.5), doubleBits(0.5000000000000001));
    EXPECT_EQ(doubleBits(0.0), 0ull);
}

TEST(Rng, UniformRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, UniformMeanConverges)
{
    Rng rng(2);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(rng.uniform(10.0, 20.0));
    EXPECT_NEAR(stat.mean(), 15.0, 0.1);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(3);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(rng.exponential(0.5));
    EXPECT_NEAR(stat.mean(), 2.0, 0.1);
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng rng(4);
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.boundedPareto(0.1, 32.0, 1.15);
        EXPECT_GE(x, 0.1 - 1e-9);
        EXPECT_LE(x, 32.0 + 1e-9);
    }
}

TEST(Rng, ZipfSkewsTowardLowRanks)
{
    Rng rng(5);
    size_t low = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; ++i) {
        const uint64_t rank = rng.zipf(1000, 1.5);
        EXPECT_GE(rank, 1u);
        EXPECT_LE(rank, 1000u);
        if (rank <= 10)
            ++low;
    }
    // With skew 1.5, the top-10 ranks should dominate.
    EXPECT_GT(low, trials / 2u);
}

TEST(Rng, WeightedChoiceRespectsWeights)
{
    Rng rng(6);
    std::vector<double> weights{1.0, 0.0, 9.0};
    size_t counts[3] = {0, 0, 0};
    for (int i = 0; i < 10000; ++i)
        ++counts[rng.weightedChoice(weights)];
    EXPECT_EQ(counts[1], 0u);
    EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(7);
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = items;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, items);
}

TEST(Stats, MeanStdPercentile)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    EXPECT_NEAR(mean(xs), 3.0, 1e-9);
    EXPECT_NEAR(stddev(xs), std::sqrt(2.0), 1e-9);
    EXPECT_NEAR(percentile(xs, 0), 1.0, 1e-9);
    EXPECT_NEAR(percentile(xs, 50), 3.0, 1e-9);
    EXPECT_NEAR(percentile(xs, 100), 5.0, 1e-9);
    EXPECT_NEAR(percentile(xs, 25), 2.0, 1e-9);
    EXPECT_NEAR(sum(xs), 15.0, 1e-9);
    EXPECT_NEAR(mean({}), 0.0, 1e-9);
    // Empty-sample convention: kNoSample, never a fake 0.
    EXPECT_NEAR(percentile({}, 50), kNoSample, 1e-9);
}

TEST(Stats, PercentileEdgeCases)
{
    const std::vector<double> xs{1, 2, 3, 4, 5};
    // q outside [0, 100] clamps to the extremes.
    EXPECT_NEAR(percentile(xs, -10.0), 1.0, 1e-9);
    EXPECT_NEAR(percentile(xs, 250.0), 5.0, 1e-9);
    // NaN q is unanswerable.
    EXPECT_NEAR(percentile(xs, std::nan("")), kNoSample, 1e-9);
    // NaN observations are dropped, not sorted.
    const double nan = std::nan("");
    EXPECT_NEAR(percentile({nan, 2.0, nan, 4.0}, 100.0), 4.0, 1e-9);
    EXPECT_NEAR(percentile({nan, nan}, 50.0), kNoSample, 1e-9);
    // Infinities order normally.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(percentile({-inf, 1.0, 2.0}, 0.0), -inf);
    EXPECT_EQ(percentile({1.0, inf}, 100.0), inf);
    // Single observation answers every quantile.
    EXPECT_NEAR(percentile({7.0}, 0.0), 7.0, 1e-9);
    EXPECT_NEAR(percentile({7.0}, 50.0), 7.0, 1e-9);
    EXPECT_NEAR(percentile({7.0}, 100.0), 7.0, 1e-9);
}

TEST(Stats, RunningStatMatchesBatch)
{
    phoenix::util::Rng rng(8);
    std::vector<double> xs;
    RunningStat stat;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform(-5, 20);
        xs.push_back(x);
        stat.add(x);
    }
    EXPECT_NEAR(stat.mean(), mean(xs), 1e-9);
    EXPECT_NEAR(stat.stddev(), stddev(xs), 1e-6);
    EXPECT_EQ(stat.count(), xs.size());
    EXPECT_NEAR(stat.min(), *std::min_element(xs.begin(), xs.end()),
                1e-12);
    EXPECT_NEAR(stat.max(), *std::max_element(xs.begin(), xs.end()),
                1e-12);
}

TEST(Stats, HistogramPercentiles)
{
    Histogram hist(0.0, 100.0, 100);
    for (int i = 0; i < 1000; ++i)
        hist.add(static_cast<double>(i % 100));
    EXPECT_EQ(hist.total(), 1000u);
    EXPECT_NEAR(hist.percentile(50), 50.0, 2.0);
    EXPECT_NEAR(hist.percentile(95), 95.0, 2.0);
    // Clamping.
    hist.add(-10.0);
    hist.add(500.0);
    EXPECT_EQ(hist.total(), 1002u);
}

TEST(Stats, HistogramEdgeCases)
{
    // Empty: kNoSample, matching util::percentile.
    Histogram empty(0.0, 10.0, 10);
    EXPECT_NEAR(empty.percentile(50), kNoSample, 1e-9);

    // q clamps; NaN q is unanswerable, NaN observations are ignored.
    Histogram hist(0.0, 10.0, 10);
    hist.add(std::nan(""));
    EXPECT_EQ(hist.total(), 0u);
    hist.add(5.0);
    EXPECT_NEAR(hist.percentile(-5.0), hist.percentile(0.0), 1e-9);
    EXPECT_NEAR(hist.percentile(900.0), hist.percentile(100.0), 1e-9);
    EXPECT_NEAR(hist.percentile(std::nan("")), kNoSample, 1e-9);

    // Zero buckets collapse to one.
    Histogram single(0.0, 10.0, 0);
    single.add(3.0);
    single.add(8.0);
    EXPECT_EQ(single.total(), 2u);
    EXPECT_EQ(single.buckets().size(), 1u);
    EXPECT_NEAR(single.percentile(50), 5.0, 1e-9);

    // lo == hi (and lo > hi): a single degenerate point at lo, with
    // no division by the zero bucket width.
    Histogram degenerate(4.0, 4.0, 8);
    degenerate.add(4.0);
    degenerate.add(100.0);
    EXPECT_EQ(degenerate.total(), 2u);
    EXPECT_NEAR(degenerate.percentile(50), 4.0, 1e-9);
    Histogram inverted(6.0, 2.0, 4);
    inverted.add(1.0);
    EXPECT_NEAR(inverted.percentile(99), 6.0, 1e-9);
}

TEST(IndexedDaryHeap, BasicOrderAndMembership)
{
    IndexedDaryHeap<int> heap;
    heap.reset(8);
    heap.push(3, 10);
    heap.push(1, 10); // tie on key: smaller id pops first
    heap.push(5, 2);
    EXPECT_EQ(heap.size(), 3u);
    EXPECT_TRUE(heap.contains(5));
    EXPECT_FALSE(heap.contains(0));
    EXPECT_EQ(heap.keyOf(3), 10);

    EXPECT_EQ(heap.pop(), 5u);
    EXPECT_EQ(heap.pop(), 1u);
    heap.erase(3);
    EXPECT_TRUE(heap.empty());

    // reset() makes ids reusable with fresh keys.
    heap.reset(4);
    heap.push(0, -5);
    heap.pushOrUpdate(0, 7); // re-key upward
    heap.push(2, 6);
    EXPECT_EQ(heap.pop(), 2u);
    EXPECT_EQ(heap.pop(), 0u);
}

TEST(IndexedDaryHeap, MatchesSetOracleUnderRandomOps)
{
    // The heap replaces std::set<pair<Key, Id>> in the planner; the
    // bit-identity suite needs their pop orders byte-identical, so
    // drive both through a random op mix and compare every answer.
    Rng rng(42);
    constexpr uint32_t kIds = 200;
    IndexedDaryHeap<int> heap;
    heap.reset(kIds);
    std::set<std::pair<int, uint32_t>> oracle;
    std::vector<int> key_of(kIds, 0);

    for (int op = 0; op < 20000; ++op) {
        const auto id =
            static_cast<uint32_t>(rng.uniformInt(0, kIds - 1));
        const int choice = static_cast<int>(rng.uniformInt(0, 3));
        if (choice == 0 && !heap.contains(id)) {
            const int key = static_cast<int>(rng.uniformInt(-50, 50));
            heap.push(id, key);
            oracle.emplace(key, id);
            key_of[id] = key;
        } else if (choice == 1 && heap.contains(id)) {
            heap.erase(id);
            oracle.erase({key_of[id], id});
        } else if (choice == 2 && !heap.empty()) {
            const auto expect = *oracle.begin();
            EXPECT_EQ(heap.keyOf(heap.top()), expect.first);
            EXPECT_EQ(heap.pop(), expect.second);
            oracle.erase(oracle.begin());
        } else if (choice == 3) {
            const int key = static_cast<int>(rng.uniformInt(-50, 50));
            if (heap.contains(id))
                oracle.erase({key_of[id], id});
            heap.pushOrUpdate(id, key);
            oracle.emplace(key, id);
            key_of[id] = key;
        }
        ASSERT_EQ(heap.size(), oracle.size());
    }
    // Drain: full pop sequence must equal the set's iteration order.
    while (!heap.empty()) {
        EXPECT_EQ(heap.pop(), oracle.begin()->second);
        oracle.erase(oracle.begin());
    }
}

TEST(BucketedKv, BestFitQueries)
{
    BucketedKv<uint32_t> kv;
    kv.insert(4.0, 1);
    kv.insert(2.0, 2);
    kv.insert(8.0, 3);

    auto hit = kv.firstAtLeast(3.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->second, 1u);
    EXPECT_EQ(kv.largest()->second, 3u);
    EXPECT_FALSE(kv.firstAtLeast(9.0).has_value());

    EXPECT_TRUE(kv.erase(4.0, 1));
    EXPECT_FALSE(kv.erase(4.0, 1));
    EXPECT_EQ(kv.firstAtLeast(3.0)->second, 3u);
    EXPECT_EQ(kv.size(), 2u);

    // Duplicate keys: smallest value among equal keys comes first, and
    // an erase takes one copy of an exact pair.
    kv.insert(5.0, 7);
    kv.insert(5.0, 3);
    kv.insert(5.0, 3);
    EXPECT_EQ(kv.size(), 5u);
    EXPECT_EQ(kv.firstAtLeast(5.0)->second, 3u);
    EXPECT_TRUE(kv.erase(5.0, 3));
    EXPECT_EQ(kv.size(), 4u);
    EXPECT_EQ(kv.firstAtLeast(5.0)->second, 3u);
}

TEST(BucketedKv, MatchesMultisetOracleUnderRandomOps)
{
    // Same total order as a std::multiset of the pairs — including
    // scan order, which the packer's repack/delete stages rely on.
    Rng rng(1337);
    using Pair = std::pair<double, uint32_t>;
    for (const double max_key : {1.0, 32.0, 4096.0}) {
        BucketedKv<uint32_t> kv;
        std::multiset<Pair> oracle;
        std::vector<Pair> live;

        for (int op = 0; op < 8000; ++op) {
            const int choice = static_cast<int>(rng.uniformInt(0, 4));
            if (choice <= 1 || live.empty()) {
                // Quantized keys so exact-pair erases and duplicate
                // keys actually occur.
                const double key =
                    max_key *
                    static_cast<double>(rng.uniformInt(0, 64)) / 64.0;
                const auto value =
                    static_cast<uint32_t>(rng.uniformInt(0, 30));
                kv.insert(key, value);
                oracle.emplace(key, value);
                live.emplace_back(key, value);
            } else if (choice == 2) {
                const size_t pick = static_cast<size_t>(
                    rng.uniformInt(0, live.size() - 1));
                const Pair victim = live[pick];
                EXPECT_TRUE(kv.erase(victim.first, victim.second));
                oracle.erase(oracle.find(victim));
                live[pick] = live.back();
                live.pop_back();
            } else if (choice == 3) {
                const double bound = rng.uniform(0.0, max_key * 1.1);
                const auto hit = kv.firstAtLeast(bound);
                const auto expect =
                    oracle.lower_bound(Pair(bound, 0));
                if (expect == oracle.end()) {
                    EXPECT_FALSE(hit.has_value()) << "bound " << bound;
                } else {
                    ASSERT_TRUE(hit.has_value()) << "bound " << bound;
                    EXPECT_EQ(*hit, *expect);
                }
            } else {
                const auto hit = kv.largest();
                if (oracle.empty()) {
                    EXPECT_FALSE(hit.has_value());
                } else {
                    ASSERT_TRUE(hit.has_value());
                    EXPECT_EQ(*hit, *oracle.rbegin());
                }
            }
            ASSERT_EQ(kv.size(), oracle.size());
        }

        // Full ascending scan == multiset iteration order.
        std::vector<Pair> ascending;
        kv.scanAtLeast(0.0, [&](const Pair &entry) {
            ascending.push_back(entry);
            return true;
        });
        EXPECT_EQ(ascending,
                  std::vector<Pair>(oracle.begin(), oracle.end()));

        // Full descending scan == reverse iteration order.
        std::vector<Pair> descending;
        kv.scanDescending([&](const Pair &entry) {
            descending.push_back(entry);
            return true;
        });
        EXPECT_EQ(descending,
                  std::vector<Pair>(oracle.rbegin(), oracle.rend()));
    }
}

namespace {

std::vector<std::pair<double, uint32_t>>
ascendingOf(const BucketedKv<uint32_t> &kv)
{
    std::vector<std::pair<double, uint32_t>> out;
    kv.scanAtLeast(-std::numeric_limits<double>::infinity(),
                   [&](const auto &entry) {
                       out.push_back(entry);
                       return true;
                   });
    return out;
}

} // namespace

TEST(BucketedKv, BulkLoadMatchesInserts)
{
    // loadSorted() must leave the sequence that inserting the same
    // pairs one at a time leaves, a multiset's order, and keep matching
    // under the operations a pack makes afterwards. Round 0 is a fresh
    // homogeneous cluster: thousands of nodes at one key. One object is
    // loaded in every round, so later loads reuse pooled blocks.
    using Pair = std::pair<double, uint32_t>;
    Rng rng(4242);
    BucketedKv<uint32_t> loaded;
    for (int round = 0; round < 4; ++round) {
        const size_t n = round == 0 ? 3000
                                    : static_cast<size_t>(
                                          rng.uniformInt(1, 2500));
        const auto tie_heavy_key = [&] {
            return 16.0 * static_cast<double>(rng.uniformInt(0, 32)) /
                   32.0;
        };
        std::vector<Pair> pairs;
        for (uint32_t v = 0; v < n; ++v) {
            const bool homogeneous = round == 0 && v % 64 != 0;
            pairs.emplace_back(homogeneous ? 16.0 : tie_heavy_key(), v);
        }
        rng.shuffle(pairs);

        BucketedKv<uint32_t> inserted;
        std::multiset<Pair> oracle;
        for (const auto &[key, value] : pairs) {
            inserted.insert(key, value);
            oracle.emplace(key, value);
        }
        std::vector<Pair> sorted = pairs;
        std::sort(sorted.begin(), sorted.end());
        loaded.loadSorted(sorted);
        ASSERT_EQ(loaded.size(), n);
        ASSERT_EQ(ascendingOf(loaded),
                  std::vector<Pair>(oracle.begin(), oracle.end()));
        ASSERT_EQ(ascendingOf(inserted), ascendingOf(loaded));

        std::vector<Pair> live = pairs;
        uint32_t next_value = static_cast<uint32_t>(n);
        for (int op = 0; op < 3000; ++op) {
            const int choice = static_cast<int>(rng.uniformInt(0, 5));
            if (choice == 0 || live.empty()) {
                const Pair entry(tie_heavy_key(), next_value++);
                loaded.insert(entry.first, entry.second);
                inserted.insert(entry.first, entry.second);
                oracle.insert(entry);
                live.push_back(entry);
            } else if (choice == 1) {
                const size_t pick = static_cast<size_t>(
                    rng.uniformInt(0, live.size() - 1));
                const Pair victim = live[pick];
                ASSERT_TRUE(loaded.erase(victim.first, victim.second));
                ASSERT_TRUE(inserted.erase(victim.first, victim.second));
                const auto found = oracle.find(victim);
                ASSERT_NE(found, oracle.end());
                oracle.erase(found);
                live[pick] = live.back();
                live.pop_back();
            } else if (choice == 2) {
                const double bound = rng.uniform(0.0, 17.0);
                const auto fit = oracle.lower_bound(Pair(bound, 0));
                const std::optional<Pair> expect =
                    fit == oracle.end() ? std::nullopt
                                        : std::optional<Pair>(*fit);
                ASSERT_EQ(loaded.firstAtLeast(bound), expect) << bound;
                ASSERT_EQ(inserted.firstAtLeast(bound), expect) << bound;
            } else if (choice == 3) {
                const std::optional<Pair> expect =
                    oracle.empty() ? std::nullopt
                                   : std::optional<Pair>(*oracle.rbegin());
                ASSERT_EQ(loaded.largest(), expect);
                ASSERT_EQ(inserted.largest(), expect);
            } else {
                // A bounded walk, as the packer's repack and victim
                // scans stop early.
                const size_t limit =
                    static_cast<size_t>(rng.uniformInt(1, 300));
                const auto walk = [&](const BucketedKv<uint32_t> &kv,
                                      double bound) {
                    std::vector<Pair> seen;
                    const auto visit = [&](const Pair &entry) {
                        seen.push_back(entry);
                        return seen.size() < limit;
                    };
                    if (choice == 4)
                        kv.scanAtLeast(bound, visit);
                    else
                        kv.scanDescending(visit);
                    return seen;
                };
                const double bound = rng.uniform(0.0, 17.0);
                std::vector<Pair> expect;
                if (choice == 4) {
                    for (auto it = oracle.lower_bound(Pair(bound, 0));
                         it != oracle.end() && expect.size() < limit;
                         ++it)
                        expect.push_back(*it);
                } else {
                    for (auto it = oracle.rbegin();
                         it != oracle.rend() && expect.size() < limit;
                         ++it)
                        expect.push_back(*it);
                }
                ASSERT_EQ(walk(loaded, bound), expect) << op;
                ASSERT_EQ(walk(inserted, bound), expect) << op;
            }
            ASSERT_EQ(loaded.size(), oracle.size());
            ASSERT_EQ(inserted.size(), oracle.size());
            if (op % 100 == 0) {
                ASSERT_EQ(ascendingOf(loaded),
                          std::vector<Pair>(oracle.begin(), oracle.end()))
                    << op;
            }
        }
        ASSERT_EQ(ascendingOf(loaded),
                  std::vector<Pair>(oracle.begin(), oracle.end()));
        ASSERT_EQ(ascendingOf(inserted), ascendingOf(loaded));
    }
    loaded.loadSorted({});
    EXPECT_TRUE(loaded.empty());
    EXPECT_FALSE(loaded.largest().has_value());
}

TEST(BucketedKv, ReconfigureClearsAndReuses)
{
    BucketedKv<uint32_t> kv;
    for (int i = 0; i < 100; ++i)
        kv.insert(static_cast<double>(i % 17), i);
    EXPECT_EQ(kv.size(), 100u);
    kv.clear();
    EXPECT_TRUE(kv.empty());
    EXPECT_FALSE(kv.firstAtLeast(0.0).has_value());
    kv.insert(3.0, 9);
    EXPECT_EQ(kv.largest()->second, 9u);
}

TEST(Table, AlignedOutputAndCsv)
{
    Table table({"scheme", "availability"});
    table.row().cell("PhoenixFair").cell(0.91, 2);
    table.row().cell("Default").cell(0.4, 2);

    std::ostringstream oss;
    table.print(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("PhoenixFair"), std::string::npos);
    EXPECT_NE(text.find("0.91"), std::string::npos);

    std::ostringstream csv;
    table.printCsv(csv);
    EXPECT_EQ(csv.str(),
              "scheme,availability\nPhoenixFair,0.91\nDefault,0.40\n");
    EXPECT_EQ(table.rowCount(), 2u);
}
