#include "memory/cache_array.hpp"

#include <bit>
#include <stdexcept>

namespace atacsim::mem {

static_assert(static_cast<Addr>(LineState::kModified) <= 3,
              "LineState must fit the 2 state bits of a tag word");

CacheArray::CacheArray(int size_KB, int assoc, int line_B)
    : line_B_(line_B), assoc_(assoc) {
  if (line_B <= static_cast<int>(kStateMask) ||
      !std::has_single_bit(static_cast<unsigned>(line_B)))
    throw std::invalid_argument(
        "cache line size must be a power of two of at least 4 bytes");
  if (assoc < 1 || assoc > 255)
    throw std::invalid_argument("cache associativity must be 1..255");
  const long long total_lines =
      static_cast<long long>(size_KB) * 1024 / line_B;
  if (total_lines <= 0 || total_lines % assoc != 0)
    throw std::invalid_argument("cache geometry does not divide");
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_B));
  sets_ = static_cast<int>(total_lines / assoc);
  tags_.resize(static_cast<std::size_t>(total_lines));
  ranks_.resize(static_cast<std::size_t>(total_lines));
}

int CacheArray::find(std::size_t base, Addr line) const {
  const Addr* set = &tags_[base];
  for (int w = 0; w < assoc_; ++w) {
    // Same address and a nonzero state leave only state bits in the xor.
    const Addr x = set[w] ^ line;
    if (x != 0 && x <= kStateMask) return w;
  }
  return -1;
}

void CacheArray::touch(std::size_t base, int way) {
  std::uint8_t* rank = &ranks_[base];
  const std::uint8_t old = rank[way];
  for (int w = 0; w < assoc_; ++w)
    if (rank[w] > old) --rank[w];
  rank[way] = static_cast<std::uint8_t>(assoc_ - 1);
}

LineState CacheArray::lookup(Addr line) {
  const std::size_t base = set_base(line);
  const int w = find(base, line);
  if (w < 0) return LineState::kInvalid;
  touch(base, w);
  return state_of(tags_[base + w]);
}

LineState CacheArray::peek(Addr line) const {
  const std::size_t base = set_base(line);
  const int w = find(base, line);
  return w < 0 ? LineState::kInvalid : state_of(tags_[base + w]);
}

LineState CacheArray::hit(Addr line, bool write) {
  const std::size_t base = set_base(line);
  const int w = find(base, line);
  if (w < 0) return LineState::kInvalid;
  const LineState s = state_of(tags_[base + w]);
  if (write && s != LineState::kModified) return LineState::kInvalid;
  touch(base, w);
  return s;
}

std::optional<CacheArray::Victim> CacheArray::install(Addr line,
                                                      LineState state) {
  const std::size_t base = set_base(line);
  int way = find(base, line);
  std::optional<Victim> out;
  if (way < 0) {
    way = 0;
    for (int w = 0; w < assoc_; ++w) {
      if (state_of(tags_[base + w]) == LineState::kInvalid) {
        way = w;
        break;
      }
      if (ranks_[base + w] < ranks_[base + way]) way = w;
    }
    const Addr old = tags_[base + way];
    if (state_of(old) != LineState::kInvalid)
      out = Victim{old & ~kStateMask, state_of(old)};
  }
  tags_[base + way] = line | static_cast<Addr>(state);
  touch(base, way);
  return out;
}

void CacheArray::set_state(Addr line, LineState s) {
  const std::size_t base = set_base(line);
  const int w = find(base, line);
  if (w >= 0) tags_[base + w] = line | static_cast<Addr>(s);
}

LineState CacheArray::invalidate(Addr line) {
  const std::size_t base = set_base(line);
  const int w = find(base, line);
  if (w < 0) return LineState::kInvalid;
  const LineState prev = state_of(tags_[base + w]);
  tags_[base + w] = line;
  return prev;
}

int CacheArray::occupancy() const {
  int n = 0;
  for (const Addr word : tags_)
    if (state_of(word) != LineState::kInvalid) ++n;
  return n;
}

}  // namespace atacsim::mem
