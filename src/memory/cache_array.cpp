#include "memory/cache_array.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace atacsim::mem {

static_assert(static_cast<unsigned>(LineState::kModified) <= 3,
              "LineState must fit the 2 state bits of a tag word");

CacheArray::CacheArray(int size_KB, int assoc, int line_B)
    : line_B_(line_B), assoc_(assoc) {
  if (line_B < 4 || !std::has_single_bit(static_cast<unsigned>(line_B)))
    throw std::invalid_argument(
        "cache line size must be a power of two of at least 4 bytes");
  if (assoc < 1 || assoc > 255)
    throw std::invalid_argument("cache associativity must be 1..255");
  const long long total_lines =
      static_cast<long long>(size_KB) * 1024 / line_B;
  if (total_lines <= 0 || total_lines % assoc != 0)
    throw std::invalid_argument("cache geometry does not divide");
  if (!std::has_single_bit(
          static_cast<unsigned long long>(total_lines / assoc)))
    throw std::invalid_argument("cache set count must be a power of two");
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_B));
  sets_ = static_cast<int>(total_lines / assoc);
  tag_shift_ = line_shift_ + std::countr_zero(static_cast<unsigned>(sets_));
  tags_.resize(static_cast<std::size_t>(total_lines));
}

void CacheArray::throw_beyond_tag_field(Addr line) const {
  std::ostringstream os;
  os << "cache line 0x" << std::hex << line << std::dec
     << " is beyond the tag word of a " << sets_ << "-set, " << assoc_
     << "-way array of " << line_B_ << " B lines (its tag field holds "
     << kTagBits << " bits, so lines must lie below 0x" << std::hex
     << (Addr{1} << (kTagBits + tag_shift_)) << ")";
  throw std::out_of_range(os.str());
}

int CacheArray::find(std::size_t base, Word key) const {
  const Word* set = &tags_[base];
  for (int w = 0; w < assoc_; ++w) {
    // Same key and a nonzero state leave only state bits 1..3 in the xor.
    const Word x = (set[w] & ~kRankMask) ^ key;
    if (x - 1 < kStateMask) return w;
  }
  return -1;
}

void CacheArray::touch(std::size_t base, int way) {
  Word* set = &tags_[base];
  const Word old = set[way] & kRankMask;
  for (int w = 0; w < assoc_; ++w)
    if ((set[w] & kRankMask) > old) set[w] -= kRankOne;
  set[way] = (set[way] & ~kRankMask) |
             (static_cast<Word>(assoc_ - 1) << kRankShift);
}

LineState CacheArray::lookup(Addr line) {
  const Word key = key_of(line);
  const std::size_t base = set_of(line) * assoc_;
  const int w = find(base, key);
  if (w < 0) return LineState::kInvalid;
  touch(base, w);
  return state_of(tags_[base + w]);
}

LineState CacheArray::peek(Addr line) const {
  const Word key = key_of(line);
  const std::size_t base = set_of(line) * assoc_;
  const int w = find(base, key);
  return w < 0 ? LineState::kInvalid : state_of(tags_[base + w]);
}

LineState CacheArray::hit(Addr line, bool write) {
  const Word key = key_of(line);
  const std::size_t base = set_of(line) * assoc_;
  const int w = find(base, key);
  if (w < 0) return LineState::kInvalid;
  const LineState s = state_of(tags_[base + w]);
  if (write && s != LineState::kModified) return LineState::kInvalid;
  touch(base, w);
  return s;
}

std::optional<CacheArray::Victim> CacheArray::install(Addr line,
                                                      LineState state) {
  const Word key = key_of(line);
  const std::size_t set_index = set_of(line);
  const std::size_t base = set_index * assoc_;
  Word* set = &tags_[base];
  int way = find(base, key);
  std::optional<Victim> out;
  if (way < 0) {
    way = 0;
    for (int w = 0; w < assoc_; ++w) {
      if (state_of(set[w]) == LineState::kInvalid) {
        way = w;
        break;
      }
      if ((set[w] & kRankMask) < (set[way] & kRankMask)) way = w;
    }
    const Word old = set[way];
    if (state_of(old) != LineState::kInvalid) {
      // The victim shares the installed line's set bits.
      const Addr tag = old >> kKeyShift;
      out = Victim{(tag << tag_shift_) | (set_index << line_shift_),
                   state_of(old)};
    }
  }
  // The way keeps its rank until touch lifts it to the top.
  set[way] = key | (set[way] & kRankMask) | static_cast<Word>(state);
  touch(base, way);
  return out;
}

void CacheArray::set_state(Addr line, LineState s) {
  const Word key = key_of(line);
  const std::size_t base = set_of(line) * assoc_;
  const int w = find(base, key);
  if (w >= 0)
    tags_[base + w] = (tags_[base + w] & ~kStateMask) | static_cast<Word>(s);
}

LineState CacheArray::invalidate(Addr line) {
  const Word key = key_of(line);
  const std::size_t base = set_of(line) * assoc_;
  const int w = find(base, key);
  if (w < 0) return LineState::kInvalid;
  const LineState prev = state_of(tags_[base + w]);
  tags_[base + w] &= ~kStateMask;
  return prev;
}

int CacheArray::occupancy() const {
  int n = 0;
  for (const Word word : tags_)
    if (state_of(word) != LineState::kInvalid) ++n;
  return n;
}

}  // namespace atacsim::mem
