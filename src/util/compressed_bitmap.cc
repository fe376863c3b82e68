#include "util/compressed_bitmap.h"

#include <algorithm>
#include <cassert>

namespace rudolf {

namespace {

inline size_t Popcount(uint64_t w) {
  return static_cast<size_t>(__builtin_popcountll(w));
}

// Number of maximal runs of set bits across the word buffer (rising edges).
size_t RunCount(const uint64_t* words, size_t nwords) {
  size_t runs = 0;
  uint64_t prev_msb = 0;
  for (size_t w = 0; w < nwords; ++w) {
    uint64_t x = words[w];
    runs += Popcount(x & ~((x << 1) | prev_msb));
    prev_msb = x >> 63;
  }
  return runs;
}

}  // namespace

CompressedBitmap::Container CompressedBitmap::FromWords(const uint64_t* words,
                                                        size_t nwords) {
  Container c;
  size_t card = 0;
  for (size_t w = 0; w < nwords; ++w) card += Popcount(words[w]);
  c.card = static_cast<uint32_t>(card);
  if (card == 0) return c;
  size_t nruns = RunCount(words, nwords);
  size_t array_bytes = card <= kArrayCutoff ? card * 2 : ~size_t{0};
  size_t runs_bytes = nruns * 4;
  size_t dense_bytes = kChunkWords * 8;
  if (array_bytes <= runs_bytes && array_bytes <= dense_bytes) {
    c.kind = Kind::kArray;
    c.array.reserve(card);
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t word = words[w];
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        c.array.push_back(static_cast<uint16_t>(w * 64 + static_cast<size_t>(bit)));
        word &= word - 1;
      }
    }
  } else if (runs_bytes <= dense_bytes) {
    c.kind = Kind::kRuns;
    c.runs.reserve(nruns);
    // Runs are disjoint and ordered, so the k-th run-end always closes the
    // k-th run-start; starts append runs, ends fill them in by index.
    size_t closed = 0;
    uint64_t prev_msb = 0;
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t x = words[w];
      uint64_t next_lsb = w + 1 < nwords ? words[w + 1] & 1 : 0;
      uint64_t starts = x & ~((x << 1) | prev_msb);
      uint64_t ends = x & ~((x >> 1) | (next_lsb << 63));
      prev_msb = x >> 63;
      while (starts != 0) {
        int bit = __builtin_ctzll(starts);
        uint16_t pos = static_cast<uint16_t>(w * 64 + static_cast<size_t>(bit));
        c.runs.emplace_back(pos, pos);
        starts &= starts - 1;
      }
      while (ends != 0) {
        int bit = __builtin_ctzll(ends);
        c.runs[closed++].second =
            static_cast<uint16_t>(w * 64 + static_cast<size_t>(bit));
        ends &= ends - 1;
      }
    }
    assert(closed == c.runs.size());
  } else {
    c.kind = Kind::kDense;
    c.words.assign(words, words + nwords);
    c.words.resize(kChunkWords, 0);
  }
  return c;
}

CompressedBitmap::CompressedBitmap(const Bitset& dense) : size_(dense.size()) {
  const uint64_t* words = dense.Words();
  size_t total_words = dense.WordCount();
  size_t grid = (size_ + kChunkBits - 1) / kChunkBits;
  for (size_t g = 0; g < grid; ++g) {
    size_t base_word = g * kChunkWords;
    size_t nw = std::min(kChunkWords, total_words - base_word);
    Container c = FromWords(words + base_word, nw);
    if (c.card != 0) {
      keys_.push_back(static_cast<uint32_t>(g));
      chunks_.push_back(std::move(c));
    }
  }
}

void CompressedBitmap::Resize(size_t new_size) {
  assert(new_size >= size_);
  size_ = new_size;
}

void CompressedBitmap::Append(size_t i) {
  assert(i >= size_);
  uint32_t key = static_cast<uint32_t>(i / kChunkBits);
  uint16_t off = static_cast<uint16_t>(i % kChunkBits);
  if (keys_.empty() || keys_.back() != key) {
    keys_.push_back(key);
    chunks_.emplace_back();
  }
  Container& c = chunks_.back();
  switch (c.kind) {
    case Kind::kArray:
      c.array.push_back(off);
      if (++c.card > kArrayCutoff) {
        // The chunk outgrew the array form; finish it as dense words (runs
        // are only chosen by the whole-chunk optimizer, not mid-append).
        c.words.assign(kChunkWords, 0);
        for (uint16_t o : c.array) c.words[o / 64] |= uint64_t{1} << (o % 64);
        c.array.clear();
        c.array.shrink_to_fit();
        c.kind = Kind::kDense;
      }
      break;
    case Kind::kRuns:
      // `off >= 1` here: the container is non-empty, so an earlier bit of
      // this chunk exists and appends are strictly increasing.
      if (c.runs.back().second == off - 1) {
        ++c.runs.back().second;
      } else {
        c.runs.emplace_back(off, off);
      }
      ++c.card;
      break;
    case Kind::kDense:
      c.words[off / 64] |= uint64_t{1} << (off % 64);
      ++c.card;
      break;
  }
  size_ = i + 1;
}

Bitset CompressedBitmap::ToBitset() const {
  Bitset out(size_);
  OrInto(&out);
  return out;
}

void CompressedBitmap::OrInto(Bitset* out) const {
  assert(out->size() >= size_);
  size_t my_words = Bitset::WordsFor(size_);
  for (size_t c = 0; c < keys_.size(); ++c) {
    size_t base = static_cast<size_t>(keys_[c]) * kChunkBits;
    size_t base_word = static_cast<size_t>(keys_[c]) * kChunkWords;
    const Container& k = chunks_[c];
    switch (k.kind) {
      case Kind::kArray:
        for (uint16_t off : k.array) out->Set(base + off);
        break;
      case Kind::kRuns:
        for (const auto& [first, last] : k.runs) {
          out->SetRange(base + first, base + static_cast<size_t>(last) + 1);
        }
        break;
      case Kind::kDense:
        out->OrWords(k.words.data(), base_word,
                     std::min(kChunkWords, my_words - base_word));
        break;
    }
  }
}

size_t CompressedBitmap::MemoryBytes() const {
  size_t bytes = sizeof(*this) + keys_.capacity() * sizeof(uint32_t) +
                 chunks_.capacity() * sizeof(Container);
  for (const Container& c : chunks_) {
    bytes += c.array.capacity() * sizeof(uint16_t) +
             c.runs.capacity() * sizeof(std::pair<uint16_t, uint16_t>) +
             c.words.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace rudolf
