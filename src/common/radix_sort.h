#ifndef ROADPART_COMMON_RADIX_SORT_H_
#define ROADPART_COMMON_RADIX_SORT_H_

#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

namespace roadpart {

/// Sorts the indices [0, n) by the 64-bit key `key_of(i)` with a stable LSD
/// radix sort over 8-bit digits: on return (*order)[r] is the index of rank
/// r, and equal keys keep ascending index order. Keys are recomputed from
/// `key_of` in every pass rather than stored, so the only scratch is one
/// index buffer. A digit that is the same in every key costs no pass, so
/// narrow keys (two packed 12-bit ids, say) pay only for the bytes they use.
/// O(n) per pass, at most eight passes.
template <typename KeyOf>
void StableRadixSortIndices(int n, const KeyOf& key_of,
                            std::vector<int>* order) {
  order->resize(n);
  std::iota(order->begin(), order->end(), 0);
  if (n < 2) return;

  // Every digit's histogram in one read pass.
  constexpr int kDigits = 8;
  std::array<std::array<int, 256>, kDigits> counts{};
  for (int i = 0; i < n; ++i) {
    const uint64_t key = key_of(i);
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }

  std::vector<int> buffer(n);
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    std::array<int, 256>& next = counts[d];
    // One digit value shared by every key: the pass would be the identity.
    if (next[(key_of(0) >> shift) & 0xff] == n) continue;
    int start = 0;
    for (int& slot : next) {
      const int count = slot;
      slot = start;
      start += count;
    }
    for (int i : *order) buffer[next[(key_of(i) >> shift) & 0xff]++] = i;
    order->swap(buffer);
  }
}

}  // namespace roadpart

#endif  // ROADPART_COMMON_RADIX_SORT_H_
