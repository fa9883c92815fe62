#include "memory/cache_array.hpp"

#include <algorithm>
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
  // Left uninitialized: install zeroes a set when it first becomes ready.
  words_.reset(static_cast<Word*>(::operator new(
      static_cast<std::size_t>(total_lines) * sizeof(Word), kHostLine)));
  ready_.assign((static_cast<std::size_t>(sets_) + 63) / 64, 0);
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

int CacheArray::find(std::size_t set, Word key) const {
  if (!ready(set)) return -1;
  const Word* words = words_of(set);
  for (int w = 0; w < assoc_; ++w) {
    // Same key and a nonzero state leave only state bits 1..3 in the xor.
    const Word x = (words[w] & ~kRankMask) ^ key;
    if (x - 1 < kStateMask) return w;
  }
  return -1;
}

void CacheArray::touch(Word* words, int way) {
  const Word old = words[way] & kRankMask;
  for (int w = 0; w < assoc_; ++w)
    if ((words[w] & kRankMask) > old) words[w] -= kRankOne;
  words[way] = (words[way] & ~kRankMask) |
               (static_cast<Word>(assoc_ - 1) << kRankShift);
}

LineState CacheArray::lookup(Addr line) {
  const Word key = key_of(line);
  const std::size_t set = set_of(line);
  const int w = find(set, key);
  if (w < 0) return LineState::kInvalid;
  Word* words = words_of(set);
  touch(words, w);
  return state_of(words[w]);
}

LineState CacheArray::peek(Addr line) const {
  const Word key = key_of(line);
  const std::size_t set = set_of(line);
  const int w = find(set, key);
  return w < 0 ? LineState::kInvalid : state_of(words_of(set)[w]);
}

LineState CacheArray::hit(Addr line, bool write) {
  const Word key = key_of(line);
  const std::size_t set = set_of(line);
  const int w = find(set, key);
  if (w < 0) return LineState::kInvalid;
  Word* words = words_of(set);
  const LineState s = state_of(words[w]);
  if (write && s != LineState::kModified) return LineState::kInvalid;
  touch(words, w);
  return s;
}

std::optional<CacheArray::Victim> CacheArray::install(Addr line,
                                                      LineState state) {
  const Word key = key_of(line);
  const std::size_t set = set_of(line);
  Word* words = words_of(set);
  if (!ready(set)) {
    std::fill_n(words, assoc_, Word{0});
    ready_[set >> 6] |= std::uint64_t{1} << (set & 63);
  }
  int way = find(set, key);
  std::optional<Victim> out;
  if (way < 0) {
    way = 0;
    for (int w = 0; w < assoc_; ++w) {
      if (state_of(words[w]) == LineState::kInvalid) {
        way = w;
        break;
      }
      if ((words[w] & kRankMask) < (words[way] & kRankMask)) way = w;
    }
    const Word old = words[way];
    if (state_of(old) != LineState::kInvalid) {
      // The victim shares the installed line's set bits.
      const Addr tag = old >> kKeyShift;
      out = Victim{(tag << tag_shift_) | (set << line_shift_), state_of(old)};
    }
  }
  // The way keeps its rank until touch lifts it to the top.
  words[way] = key | (words[way] & kRankMask) | static_cast<Word>(state);
  touch(words, way);
  return out;
}

void CacheArray::set_state(Addr line, LineState s) {
  const Word key = key_of(line);
  const std::size_t set = set_of(line);
  const int w = find(set, key);
  if (w >= 0) {
    Word& word = words_of(set)[w];
    word = (word & ~kStateMask) | static_cast<Word>(s);
  }
}

LineState CacheArray::invalidate(Addr line) {
  const Word key = key_of(line);
  const std::size_t set = set_of(line);
  const int w = find(set, key);
  if (w < 0) return LineState::kInvalid;
  Word& word = words_of(set)[w];
  const LineState prev = state_of(word);
  word &= ~kStateMask;
  return prev;
}

int CacheArray::occupancy() const {
  int n = 0;
  for (std::size_t set = 0; set < static_cast<std::size_t>(sets_); ++set) {
    if (!ready(set)) continue;
    const Word* words = words_of(set);
    for (int w = 0; w < assoc_; ++w)
      if (state_of(words[w]) != LineState::kInvalid) ++n;
  }
  return n;
}

}  // namespace atacsim::mem
