#include "sim/holder_index.hpp"

#include <algorithm>

namespace atacsim::sim {

namespace {
constexpr std::size_t kInitialSlots = 64;
}

HolderIndex::HolderIndex(int num_cores)
    : words_((static_cast<std::size_t>(num_cores) + 63) / 64),
      slots_(kInitialSlots, kFree) {
  for (std::size_t n = kInitialSlots; n > 1; n /= 2) --shift_;
}

std::size_t HolderIndex::slot_of(Addr line) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = home(line);
  while (slots_[s] != kFree && row(slots_[s])[0] != line) s = (s + 1) & mask;
  return s;
}

const std::uint64_t* HolderIndex::find(Addr line) const {
  const std::size_t s = slot_of(line);
  return slots_[s] == kFree ? nullptr : row(slots_[s]) + 1;
}

void HolderIndex::add(Addr line, CoreId c) {
  std::size_t s = slot_of(line);
  if (slots_[s] == kFree) {
    // Keep the table at most half full so probe runs stay short.
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      s = slot_of(line);
    }
    if (free_rows_.empty()) {
      slots_[s] = static_cast<std::uint32_t>(pool_.size() / (words_ + 1));
      pool_.resize(pool_.size() + words_ + 1, 0);
    } else {
      slots_[s] = free_rows_.back();
      free_rows_.pop_back();
    }
    row(slots_[s])[0] = line;
    ++size_;
  }
  set_core(row(slots_[s]) + 1, c);
}

void HolderIndex::remove(Addr line, CoreId c) {
  const std::size_t s = slot_of(line);
  if (slots_[s] == kFree) return;
  std::uint64_t* bits = row(slots_[s]) + 1;
  clear_core(bits, c);
  if (std::all_of(bits, bits + words_, [](std::uint64_t w) { return w == 0; }))
    erase_slot(s);
}

void HolderIndex::erase_slot(std::size_t slot) {
  free_rows_.push_back(slots_[slot]);
  --size_;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t s = (hole + 1) & mask; slots_[s] != kFree;
       s = (s + 1) & mask) {
    // The entry at s may fill the hole unless its home lies cyclically in
    // (hole, s]: then it would sit before its home and be unreachable.
    const std::size_t h = home(row(slots_[s])[0]);
    const bool stays = hole < s ? (hole < h && h <= s) : (hole < h || h <= s);
    if (stays) continue;
    slots_[hole] = slots_[s];
    hole = s;
  }
  slots_[hole] = kFree;
}

void HolderIndex::grow() {
  std::vector<std::uint32_t> old(slots_.size() * 2, kFree);
  old.swap(slots_);
  --shift_;
  for (const std::uint32_t r : old)
    if (r != kFree) slots_[slot_of(row(r)[0])] = r;
}

}  // namespace atacsim::sim
