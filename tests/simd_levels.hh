/**
 * @file
 * Test helpers for running one body at every SIMD dispatch level the
 * host supports.
 */

#ifndef VSMOOTH_TESTS_SIMD_LEVELS_HH
#define VSMOOTH_TESTS_SIMD_LEVELS_HH

#include <vector>

#include "common/simd.hh"

namespace vsmooth::testing {

/** Levels the host can actually run, narrowest first. */
inline std::vector<simd::IsaLevel>
hostLevels()
{
    std::vector<simd::IsaLevel> levels{simd::IsaLevel::Scalar};
    const int host = static_cast<int>(simd::detectHostLevel());
    if (host >= static_cast<int>(simd::IsaLevel::Avx2))
        levels.push_back(simd::IsaLevel::Avx2);
    if (host >= static_cast<int>(simd::IsaLevel::Avx512))
        levels.push_back(simd::IsaLevel::Avx512);
    return levels;
}

/** Restore the dispatch level after a test body that overrides it. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(simd::activeLevel()) {}
    ~LevelGuard() { simd::setActiveLevel(saved_); }

  private:
    simd::IsaLevel saved_;
};

} // namespace vsmooth::testing

#endif // VSMOOTH_TESTS_SIMD_LEVELS_HH
