// Heap allocations made by the calling thread since it started, as
// counted by the benchmark's replacement operator new.
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t thread_allocations();

}  // namespace perfbench
