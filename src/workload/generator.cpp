#include "repro/workload/generator.hpp"

#include <algorithm>

namespace repro::workload {

StackDistanceGenerator::StackDistanceGenerator(const WorkloadSpec& spec,
                                               std::uint32_t sets,
                                               std::uint32_t stack_cap)
    : spec_(spec),
      sets_(sets),
      stack_cap_(stack_cap != 0
                     ? stack_cap
                     : std::max<std::uint32_t>(
                           1, static_cast<std::uint32_t>(
                                  spec.reuse_weights.size()))),
      outcome_([&] {
        spec.validate();
        std::vector<double> weights = spec.reuse_weights;
        weights.push_back(spec.new_line_weight);
        weights.push_back(spec.stream_weight);
        return DiscreteSampler(weights);
      }()),
      new_outcome_(spec.reuse_weights.size()),
      stream_outcome_(spec.reuse_weights.size() + 1),
      stack_buf_(static_cast<std::size_t>(sets) * stack_cap_, 0),
      head_(sets, 0),
      size_(sets, 0),
      stream_cursor_(0) {
  REPRO_ENSURE(sets_ > 0, "generator needs at least one set");
  REPRO_ENSURE(stack_cap_ > 0 && stack_cap_ < 0x8000,
               "stack cap out of range");
  REPRO_ENSURE(spec.reuse_weights.size() <= stack_cap_,
               "reuse depths deeper than the stack cap");
}

sim::MemoryAccess StackDistanceGenerator::new_line_access(std::uint32_t set) {
  std::uint64_t* ring = stack_buf_.data() +
                        static_cast<std::size_t>(set) * stack_cap_;
  std::uint16_t& head = head_[set];
  head = static_cast<std::uint16_t>((head + stack_cap_ - 1) % stack_cap_);
  const std::uint64_t line = next_line_id_++;
  ring[head] = line;
  if (size_[set] < stack_cap_) ++size_[set];
  return sim::MemoryAccess{set, line, sim::kNoStreamAddr};
}

sim::MemoryAccess StackDistanceGenerator::reuse_access(std::uint32_t set,
                                                       std::uint32_t depth) {
  if (depth > size_[set]) return new_line_access(set);
  std::uint64_t* ring = stack_buf_.data() +
                        static_cast<std::size_t>(set) * stack_cap_;
  const std::uint32_t head = head_[set];
  // Wrap-aware indexing without modulo (indices stay below 2·cap).
  std::uint32_t pos = head + depth - 1;
  if (pos >= stack_cap_) pos -= stack_cap_;
  const std::uint64_t line = ring[pos];
  if (depth == stack_cap_) {
    // Full ring, reused line at the tail (every stressmark access):
    // the slot before the head already holds it, so moving it to the
    // front is one head decrement.
    head_[set] = static_cast<std::uint16_t>(pos);
    return sim::MemoryAccess{set, line, sim::kNoStreamAddr};
  }
  // Move to front: walk back from the reused slot, shifting the
  // depth−1 younger entries down by one.
  std::uint32_t dst = pos;
  for (std::uint32_t i = depth - 1; i > 0; --i) {
    const std::uint32_t src = dst == 0 ? stack_cap_ - 1 : dst - 1;
    ring[dst] = ring[src];
    dst = src;
  }
  ring[head] = line;
  return sim::MemoryAccess{set, line, sim::kNoStreamAddr};
}

sim::MemoryAccess StackDistanceGenerator::next(Rng& rng) {
  const std::size_t outcome = outcome_.sample(rng);
  if (outcome == stream_outcome_)
    return sim::stream_access(stream_cursor_++, sets_);
  const std::uint32_t set =
      static_cast<std::uint32_t>(rng.uniform_index(sets_));
  if (outcome == new_outcome_) return new_line_access(set);
  return reuse_access(set, static_cast<std::uint32_t>(outcome) + 1);
}

std::unique_ptr<sim::AccessGenerator> StackDistanceGenerator::clone() const {
  return std::make_unique<StackDistanceGenerator>(spec_, sets_, stack_cap_);
}

std::unique_ptr<sim::AccessGenerator> make_generator(const std::string& name,
                                                     std::uint32_t sets) {
  return std::make_unique<StackDistanceGenerator>(find_spec(name), sets);
}

}  // namespace repro::workload
