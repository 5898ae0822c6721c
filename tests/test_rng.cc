/**
 * @file
 * Tests for the deterministic RNG (common/rng.hh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"

using namespace pinte;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, NearbySeedsGiveUnrelatedStreams)
{
    // splitmix64 seeding should decorrelate adjacent seeds.
    Rng a(100), b(101);
    double corr = 0;
    for (int i = 0; i < 1000; ++i)
        corr += (a.drawUnit() - 0.5) * (b.drawUnit() - 0.5);
    corr /= 1000;
    EXPECT_LT(std::abs(corr), 0.02);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.next());
    a.reseed(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, DrawUnitInHalfOpenInterval)
{
    Rng r(3);
    for (int i = 0; i < 100000; ++i) {
        const double u = r.drawUnit();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, DrawUnitMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.drawUnit();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, DrawRangeBounds)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.drawRange(17), 17u);
}

TEST(Rng, DrawRangeZeroBound)
{
    Rng r(5);
    EXPECT_EQ(r.drawRange(0), 0u);
}

TEST(Rng, DrawRangeOneBound)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.drawRange(1), 0u);
}

TEST(Rng, DrawRangeCoversAllValues)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.drawRange(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DrawRangeRoughlyUniform)
{
    Rng r(13);
    const int buckets = 10, n = 100000;
    std::vector<int> count(buckets, 0);
    for (int i = 0; i < n; ++i)
        count[r.drawRange(buckets)]++;
    // Each bucket within 5% of expectation.
    for (int c : count)
        EXPECT_NEAR(c, n / buckets, n / buckets * 0.05);
}

TEST(Rng, DrawBetweenInclusive)
{
    Rng r(17);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.drawBetween(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        hit_lo |= (v == 3);
        hit_hi |= (v == 6);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DrawBetweenDegenerate)
{
    Rng r(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.drawBetween(5, 5), 5u);
}

TEST(Rng, DrawBoolProbability)
{
    Rng r(23);
    const int n = 100000;
    int heads = 0;
    for (int i = 0; i < n; ++i)
        if (r.drawBool(0.3))
            ++heads;
    EXPECT_NEAR(heads / double(n), 0.3, 0.01);
}

TEST(Rng, DrawBoolExtremes)
{
    Rng r(29);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(r.drawBool(0.0));
        EXPECT_TRUE(r.drawBool(1.0));
    }
}

TEST(Rng, DrawExponentialMean)
{
    Rng r(31);
    const int n = 200000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.drawExponential(50.0, 100000));
    // Integer truncation shifts the mean down by ~0.5.
    EXPECT_NEAR(sum / n, 49.5, 1.5);
}

TEST(Rng, DrawExponentialCap)
{
    Rng r(37);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LE(r.drawExponential(1000.0, 64), 64u);
}

TEST(Rng, DrawExponentialZeroMean)
{
    Rng r(41);
    EXPECT_EQ(r.drawExponential(0.0, 100), 0u);
    EXPECT_EQ(r.drawExponential(-1.0, 100), 0u);
}

namespace
{

/** The probabilities at and around the edges of unitThreshold(). */
std::vector<double>
edgeProbabilities()
{
    return {0.0,  0x1.0p-54, 0x1.0p-53, 0.08, 0.5, 0.9,
            std::nextafter(1.0, 0.0), 1.0, 1.5, -0.2, std::nan("")};
}

/**
 * The identity drawBelow() rests on, checked at the threshold itself:
 * the largest 53-bit draw below it passes drawBool(p)'s compare and
 * the threshold draw fails it.
 */
void
expectExactThreshold(double p)
{
    const std::uint64_t t = Rng::unitThreshold(p);
    ASSERT_LE(t, std::uint64_t(1) << 53) << "p=" << p;
    if (t > 0) {
        EXPECT_TRUE(static_cast<double>(t - 1) * 0x1.0p-53 < p)
            << "p=" << p;
    }
    if (t < (std::uint64_t(1) << 53)) {
        EXPECT_FALSE(static_cast<double>(t) * 0x1.0p-53 < p)
            << "p=" << p;
    }
}

} // namespace

static_assert(Rng::unitThreshold(0.5) == std::uint64_t(1) << 52);
static_assert(Rng::unitThreshold(1.0) == std::uint64_t(1) << 53);
static_assert(Rng::unitThreshold(0x1.0p-54) == 1);
static_assert(Rng::unitThreshold(-0.0) == 0);

TEST(Rng, UnitThresholdIsExactAtEdges)
{
    for (const double p : edgeProbabilities())
        expectExactThreshold(p);
}

TEST(Rng, UnitThresholdIsExactForRandomProbabilities)
{
    // drawUnit() values are multiples of 2^-53, where a rounding slip
    // in the threshold would show; also their neighbours one ulp away,
    // and scaled-down values that fall between the multiples.
    Rng pick(53);
    for (int i = 0; i < 100000; ++i) {
        const double p = pick.drawUnit();
        expectExactThreshold(p);
        expectExactThreshold(std::nextafter(p, 0.0));
        expectExactThreshold(std::nextafter(p, 1.0));
        expectExactThreshold(std::ldexp(p, -(i % 64)));
    }
}

TEST(Rng, DrawBelowMatchesDrawBoolInLockstep)
{
    for (const double p : edgeProbabilities()) {
        Rng a(61), b(61);
        const std::uint64_t t = Rng::unitThreshold(p);
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(a.drawBelow(t), b.drawBool(p))
                << "p=" << p << " draw " << i;
        EXPECT_EQ(a.state(), b.state());
    }
    // A fresh random p on every draw.
    Rng a(67), b(67), pick(71);
    for (int i = 0; i < 1000000; ++i) {
        const double p = pick.drawUnit();
        ASSERT_EQ(a.drawBelow(Rng::unitThreshold(p)), b.drawBool(p))
            << "p=" << p << " draw " << i;
    }
    EXPECT_EQ(a.state(), b.state());
}
