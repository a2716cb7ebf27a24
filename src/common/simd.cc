#include "simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "logging.hh"
#include "simd_kernels.hh"

namespace vsmooth::simd {

const char *
levelName(IsaLevel level)
{
    switch (level) {
      case IsaLevel::Scalar: return "scalar";
      case IsaLevel::Avx2: return "avx2";
      case IsaLevel::Avx512: return "avx512";
    }
    return "scalar";
}

IsaLevel
detectHostLevel()
{
#if defined(__x86_64__) || defined(_M_X64)
    // The AVX-512 TU is built with -mavx512f alone; every AVX512F CPU
    // also has the AVX2 forms it uses.
    if (__builtin_cpu_supports("avx512f"))
        return IsaLevel::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return IsaLevel::Avx2;
#endif
    return IsaLevel::Scalar;
}

namespace {

std::atomic<int> activeLevelPlusOne{0}; // 0 = not yet resolved

std::size_t
laneWidthFor(IsaLevel level)
{
    const char *env = std::getenv("VSMOOTH_LANES");
    if (env && *env) {
        char *end = nullptr;
        const long lanes = std::strtol(env, &end, 10);
        if (!end || *end != '\0' || lanes < 1 ||
            lanes > static_cast<long>(kMaxLanes)) {
            fatal("VSMOOTH_LANES=%s is invalid; it must be an integer "
                  "in [1, %zu]", env, kMaxLanes);
        }
        return static_cast<std::size_t>(lanes);
    }
    // Two vectors in flight at the wide levels (16 for AVX-512, 8
    // for AVX2); the scalar kernel still interleaves 4 dependency
    // chains for ILP.
    switch (level) {
      case IsaLevel::Avx512: return 16;
      case IsaLevel::Avx2: return 8;
      default: return 4;
    }
}

IsaLevel
resolveFromEnvironment()
{
    const IsaLevel host = detectHostLevel();
    const char *env = std::getenv("VSMOOTH_SIMD");
    if (!env || !*env) {
        inform("simd: %s kernels (host maximum), %zu scenario lanes",
               levelName(host), laneWidthFor(host));
        return host;
    }

    IsaLevel wanted;
    if (std::strcmp(env, "scalar") == 0) {
        wanted = IsaLevel::Scalar;
    } else if (std::strcmp(env, "avx2") == 0) {
        wanted = IsaLevel::Avx2;
    } else if (std::strcmp(env, "avx512") == 0) {
        wanted = IsaLevel::Avx512;
    } else {
        fatal("VSMOOTH_SIMD=%s is not recognised; it must be one of "
              "scalar, avx2, avx512", env);
    }
    if (static_cast<int>(wanted) > static_cast<int>(host)) {
        fatal("VSMOOTH_SIMD=%s requests a level this host lacks "
              "(host maximum is %s)", env, levelName(host));
    }
    inform("simd: %s kernels (VSMOOTH_SIMD override), "
           "%zu scenario lanes", levelName(wanted), laneWidthFor(wanted));
    return wanted;
}

} // namespace

IsaLevel
activeLevel()
{
    int cached = activeLevelPlusOne.load(std::memory_order_acquire);
    if (cached)
        return static_cast<IsaLevel>(cached - 1);

    static std::once_flag once;
    std::call_once(once, [] {
        const IsaLevel level = resolveFromEnvironment();
        activeLevelPlusOne.store(static_cast<int>(level) + 1,
                                 std::memory_order_release);
    });
    return static_cast<IsaLevel>(
        activeLevelPlusOne.load(std::memory_order_acquire) - 1);
}

void
setActiveLevel(IsaLevel level)
{
    if (static_cast<int>(level) > static_cast<int>(detectHostLevel()))
        fatal("setActiveLevel(%s): host maximum is %s", levelName(level),
              levelName(detectHostLevel()));
    activeLevelPlusOne.store(static_cast<int>(level) + 1,
                             std::memory_order_release);
}

std::size_t
vectorWidth(IsaLevel level)
{
    switch (level) {
      case IsaLevel::Scalar: return 1;
      case IsaLevel::Avx2: return 4;
      case IsaLevel::Avx512: return 8;
    }
    return 1;
}

std::size_t
defaultLaneWidth()
{
    return laneWidthFor(activeLevel());
}

std::string
description()
{
    return std::string(levelName(activeLevel())) + "x" +
        std::to_string(defaultLaneWidth());
}

const KernelSet &
kernelsFor(IsaLevel level)
{
    switch (level) {
      case IsaLevel::Scalar: return kScalarKernels;
      case IsaLevel::Avx2: return kAvx2Kernels;
      case IsaLevel::Avx512: return kAvx512Kernels;
    }
    return kScalarKernels;
}

const KernelSet &
kernels()
{
    return kernelsFor(activeLevel());
}

} // namespace vsmooth::simd
