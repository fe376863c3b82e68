// A dense, dynamically sized bitset used for rule capture sets. Rule
// evaluation over the transaction relation produces one Bitset per rule;
// unions, intersections and label-partitioned popcounts are the hot
// operations of the cost model.

#ifndef RUDOLF_UTIL_BITSET_H_
#define RUDOLF_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rudolf {

/// \brief Fixed-universe dense bitset over row indices [0, size).
class Bitset {
 public:
  Bitset() = default;

  /// Creates a bitset over `size` bits, all clear (or all set).
  explicit Bitset(size_t size, bool value = false);

  size_t size() const { return size_; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  /// Sets every bit to `value`.
  void Fill(bool value);

  /// Grows (or shrinks) the universe to `new_size`, preserving the bits of
  /// the common prefix; bits gained by growth start clear. This is the
  /// append path of the streaming structures: extending a capture bitmap to
  /// a larger row prefix costs one word-vector resize, not a rebuild.
  void Resize(size_t new_size);

  /// Sets every bit in [begin, end) (clamped to size).
  void SetRange(size_t begin, size_t end);

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits among the first `prefix` bits.
  size_t CountPrefix(size_t prefix) const;

  bool Any() const { return Count() > 0; }
  bool None() const { return Count() == 0; }

  /// Number of set bits in [begin, end) (clamped to size).
  size_t CountRange(size_t begin, size_t end) const;

  /// ORs `other`'s bits in [begin, end) into this; bits outside the range
  /// are untouched. `other` must have the same size. When `begin` and `end`
  /// are multiples of 64 (or `end == size()`), only whole words inside the
  /// range are written — concurrent OrRange calls over disjoint
  /// word-aligned ranges of the same destination therefore never race.
  void OrRange(const Bitset& other, size_t begin, size_t end);

  /// In-place union with zext(other): `other` may be shorter than this; its
  /// missing tail is treated as zeros. Lets bitmaps bound to an older, shorter
  /// prefix combine with extended ones without materializing a resized copy.
  void OrZeroExtended(const Bitset& other);

  /// In-place difference with zext(other): this &= ~zext(other), with
  /// `other` no longer than this.
  void SubtractZeroExtended(const Bitset& other);

  /// In-place union; `other` must have the same size.
  Bitset& operator|=(const Bitset& other);
  /// In-place intersection; `other` must have the same size.
  Bitset& operator&=(const Bitset& other);
  /// In-place difference (this & ~other); `other` must have the same size.
  Bitset& Subtract(const Bitset& other);

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }

  bool operator==(const Bitset& other) const;

  /// |this & other| without materializing the intersection.
  size_t IntersectCount(const Bitset& other) const;

  /// |this & ~other| without materializing the difference.
  size_t DifferenceCount(const Bitset& other) const;

  /// Word-level access for the vectorized kernels (src/simd/) and memory
  /// accounting: bit i of word i/64 is row i. Writers must
  /// preserve the padding invariant (bits ≥ size() stay clear); OrWords
  /// re-clears the padding whenever it touches the last word, so masks
  /// produced by the kernels can be ORed in directly.
  static size_t WordsFor(size_t bits) { return (bits + 63) / 64; }
  const uint64_t* Words() const { return words_.data(); }
  size_t WordCount() const { return words_.size(); }

  /// this.words[word_offset + i] |= src[i] for i in [0, n).
  void OrWords(const uint64_t* src, size_t word_offset, size_t n);

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Calls fn(index) for every set bit in [begin, end) (clamped to size), in
  /// ascending order. Cost is O((end - begin)/64), independent of size() —
  /// the delta-accumulation passes of the append path iterate only the new
  /// row range with this.
  template <typename Fn>
  void ForEachInRange(size_t begin, size_t end, Fn&& fn) const {
    if (end > size_) end = size_;
    if (begin >= end) return;
    size_t first = begin / 64;
    size_t last = (end - 1) / 64;
    for (size_t w = first; w <= last; ++w) {
      uint64_t word = words_[w];
      if (w == first) word &= ~uint64_t{0} << (begin % 64);
      if (w == last && end % 64 != 0) word &= (uint64_t{1} << (end % 64)) - 1;
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Returns the indices of all set bits.
  std::vector<size_t> ToIndices() const;

 private:
  void ClearPadding();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace rudolf

#endif  // RUDOLF_UTIL_BITSET_H_
