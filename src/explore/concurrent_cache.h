#pragma once

// Former name of the result cache, kept only because
// mhla_bench/src/probes.cpp (a frozen benchmark source) includes this header
// and spells the type this way.  New code uses xplore::ResultCache.
#include "explore/cache.h"

namespace mhla::xplore {
using ConcurrentResultCache = ResultCache;
}  // namespace mhla::xplore
