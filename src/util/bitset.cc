#include "util/bitset.h"

#include <cassert>

namespace rudolf {

Bitset::Bitset(size_t size, bool value)
    : size_(size), words_((size + 63) / 64, value ? ~uint64_t{0} : 0) {
  if (value) ClearPadding();
}

void Bitset::ClearPadding() {
  size_t tail = size_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

void Bitset::Set(size_t i) {
  assert(i < size_);
  words_[i / 64] |= uint64_t{1} << (i % 64);
}

void Bitset::Clear(size_t i) {
  assert(i < size_);
  words_[i / 64] &= ~(uint64_t{1} << (i % 64));
}

bool Bitset::Test(size_t i) const {
  assert(i < size_);
  return (words_[i / 64] >> (i % 64)) & 1;
}

void Bitset::Fill(bool value) {
  for (auto& w : words_) w = value ? ~uint64_t{0} : 0;
  if (value) ClearPadding();
}

void Bitset::Resize(size_t new_size) {
  size_t old_size = size_;
  size_ = new_size;
  words_.resize((new_size + 63) / 64, 0);
  if (new_size < old_size) {
    ClearPadding();
  } else if (old_size % 64 != 0 && !words_.empty()) {
    // Growth into a previously padded tail: the padding is already zero by
    // the ClearPadding invariant, so nothing to do — asserted, not cleared.
    assert((words_[old_size / 64] & ~((uint64_t{1} << (old_size % 64)) - 1)) == 0);
  }
}

void Bitset::SetRange(size_t begin, size_t end) {
  if (end > size_) end = size_;
  if (begin >= end) return;
  size_t first = begin / 64;
  size_t last = (end - 1) / 64;
  uint64_t head = ~uint64_t{0} << (begin % 64);
  uint64_t tail = end % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (end % 64)) - 1;
  if (first == last) {
    words_[first] |= head & tail;
    return;
  }
  words_[first] |= head;
  for (size_t w = first + 1; w < last; ++w) words_[w] = ~uint64_t{0};
  words_[last] |= tail;
}

void Bitset::OrWords(const uint64_t* src, size_t word_offset, size_t n) {
  assert(word_offset + n <= words_.size());
  uint64_t* dst = words_.data() + word_offset;
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
  if (word_offset + n == words_.size()) ClearPadding();
}

void Bitset::OrZeroExtended(const Bitset& other) {
  assert(other.size_ <= size_);
  for (size_t i = 0; i < other.words_.size(); ++i) words_[i] |= other.words_[i];
}

void Bitset::SubtractZeroExtended(const Bitset& other) {
  assert(other.size_ <= size_);
  for (size_t i = 0; i < other.words_.size(); ++i) words_[i] &= ~other.words_[i];
}

size_t Bitset::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
  return n;
}

size_t Bitset::CountPrefix(size_t prefix) const { return CountRange(0, prefix); }

namespace {

// Masks selecting the in-range bits of the first and last word of [begin, end).
inline uint64_t HeadMask(size_t begin) { return ~uint64_t{0} << (begin % 64); }
inline uint64_t TailMask(size_t end) {
  size_t tail = end % 64;
  return tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
}

}  // namespace

size_t Bitset::CountRange(size_t begin, size_t end) const {
  if (end > size_) end = size_;
  if (begin >= end) return 0;
  size_t first = begin / 64;
  size_t last = (end - 1) / 64;
  if (first == last) {
    return static_cast<size_t>(
        __builtin_popcountll(words_[first] & HeadMask(begin) & TailMask(end)));
  }
  size_t n = static_cast<size_t>(__builtin_popcountll(words_[first] & HeadMask(begin)));
  for (size_t w = first + 1; w < last; ++w) {
    n += static_cast<size_t>(__builtin_popcountll(words_[w]));
  }
  n += static_cast<size_t>(__builtin_popcountll(words_[last] & TailMask(end)));
  return n;
}

void Bitset::OrRange(const Bitset& other, size_t begin, size_t end) {
  assert(size_ == other.size_);
  if (end > size_) end = size_;
  if (begin >= end) return;
  size_t first = begin / 64;
  size_t last = (end - 1) / 64;
  if (first == last) {
    words_[first] |= other.words_[first] & HeadMask(begin) & TailMask(end);
    return;
  }
  words_[first] |= other.words_[first] & HeadMask(begin);
  for (size_t w = first + 1; w < last; ++w) words_[w] |= other.words_[w];
  words_[last] |= other.words_[last] & TailMask(end);
}

Bitset& Bitset::operator|=(const Bitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

Bitset& Bitset::operator&=(const Bitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

Bitset& Bitset::Subtract(const Bitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

bool Bitset::operator==(const Bitset& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

size_t Bitset::IntersectCount(const Bitset& other) const {
  assert(size_ == other.size_);
  size_t n = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    n += static_cast<size_t>(__builtin_popcountll(words_[i] & other.words_[i]));
  }
  return n;
}

size_t Bitset::DifferenceCount(const Bitset& other) const {
  assert(size_ == other.size_);
  size_t n = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    n += static_cast<size_t>(__builtin_popcountll(words_[i] & ~other.words_[i]));
  }
  return n;
}

std::vector<size_t> Bitset::ToIndices() const {
  std::vector<size_t> out;
  out.reserve(Count());
  ForEach([&out](size_t i) { out.push_back(i); });
  return out;
}

}  // namespace rudolf
