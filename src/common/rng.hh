/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behavior in the simulator (PInTE trigger draws, random
 * replacement, synthetic trace generation) flows through Rng so a run is
 * reproducible from a single seed. The generator is xoshiro256**, which
 * is fast, has a 2^256-1 period, and passes BigCrush.
 */

#ifndef PINTE_COMMON_RNG_HH
#define PINTE_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace pinte
{

/**
 * xoshiro256** pseudo-random generator with convenience draws.
 *
 * The PInTE paper computes its trigger ratio as
 * random_number / max_random_number (eq. 2); drawUnit() provides exactly
 * that quantity in [0, 1).
 */
class Rng
{
  public:
    /** Seed via splitmix64 so nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1) — the paper's trigger ratio (eq. 2). */
    double
    drawUnit()
    {
        // 53 high bits -> double in [0, 1) with full mantissa resolution.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) via Lemire rejection. */
    std::uint64_t
    drawRange(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Lemire's unbiased bounded draw.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < bound) {
            std::uint64_t t = -bound % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t drawBetween(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli draw: true with probability p. */
    bool drawBool(double p) { return drawUnit() < p; }

    /**
     * The integer form of drawBool(p): the 53-bit draw k = next() >> 11
     * behind drawUnit() is the double k * 2^-53 exactly, so
     * `drawUnit() < p` holds exactly when `k < ceil(p * 2^53)`. The
     * threshold clamps to 2^53 for p >= 1 (always true) and to 0 for
     * p <= 0 or NaN (always false), as the double compare does.
     */
    static constexpr std::uint64_t
    unitThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return std::uint64_t(1) << 53;
        // p * 2^53 is exact (a power-of-two scale of p in (0, 1)), and
        // ceil of it is the truncation plus one unless it is integral.
        const double scaled = p * 0x1.0p53;
        const auto k = static_cast<std::uint64_t>(scaled);
        return k + (static_cast<double>(k) < scaled ? 1 : 0);
    }

    /**
     * Bernoulli draw against a precomputed unitThreshold(p): consumes
     * one draw and returns exactly what drawBool(p) would.
     */
    bool
    drawBelow(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * Geometric-ish draw of an exponentially distributed value with the
     * given mean, clamped to [0, cap]. Used by trace generators to pick
     * reuse distances.
     */
    std::uint64_t drawExponential(double mean, std::uint64_t cap);

    /** Re-seed the generator, restarting the stream. */
    void reseed(std::uint64_t seed);

    /** @name Checkpoint support (common/snapshot.hh) */
    /// @{
    /** The four xoshiro256** state words, s[0]..s[3]. */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    /** Restore a stream captured with state(). */
    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = s[i];
    }
    /// @}

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace pinte

#endif // PINTE_COMMON_RNG_HH
