//===- Arena.h - Chunked bump allocator for immutable bytes ----*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chunked bump allocator for data that is written once and never freed
/// individually — the storage idiom behind the hot-path memory
/// architecture (docs/PERFORMANCE.md): canonical instance bytes are
/// hash-consed into an arena owned by the InstanceTable, so every
/// distinct instance stores its bytes exactly once, with no per-buffer
/// malloc header, no capacity slack, and one deallocation for the whole
/// enumeration.
///
/// Not thread-safe by itself. The InstanceTable's concurrency contract
/// (all inserts in the enumerator's commit step, under its commit mutex)
/// means the arena never needs a lock of its own.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_ARENA_H
#define POSE_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pose {

/// A read-only view of bytes stored in an Arena (or anywhere else). The
/// arena guarantees spans stay valid until reset()/destruction: chunks
/// are never reallocated, only appended.
struct ByteSpan {
  const uint8_t *Data = nullptr;
  size_t Size = 0;

  bool empty() const { return Size == 0; }
};

bool operator==(const ByteSpan &A, const ByteSpan &B);
bool operator==(const ByteSpan &A, const std::vector<uint8_t> &B);
inline bool operator!=(const ByteSpan &A, const ByteSpan &B) {
  return !(A == B);
}
inline bool operator!=(const ByteSpan &A, const std::vector<uint8_t> &B) {
  return !(A == B);
}

class Arena {
public:
  /// \p ChunkSize is the default capacity of each chunk; allocations
  /// larger than a chunk get a dedicated chunk of exactly their size.
  explicit Arena(size_t ChunkSize = 64 * 1024) : ChunkBytes(ChunkSize) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  Arena(Arena &&) = default;
  Arena &operator=(Arena &&) = default;

  /// Bump-allocates \p Size bytes (unaligned; byte data only).
  uint8_t *alloc(size_t Size);

  /// Copies \p Size bytes from \p Data into the arena and returns a span
  /// over the stored copy. Spans remain valid for the arena's lifetime.
  ByteSpan store(const uint8_t *Data, size_t Size);
  ByteSpan store(const std::vector<uint8_t> &Bytes) {
    return store(Bytes.data(), Bytes.size());
  }

  /// Payload bytes handed out so far.
  size_t bytesAllocated() const { return Allocated; }

  /// Total chunk capacity reserved (>= bytesAllocated()).
  size_t bytesReserved() const { return Reserved; }

  /// Frees every chunk. Invalidates all spans.
  void reset();

private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> Data;
    size_t Capacity = 0;
  };

  std::vector<Chunk> Chunks;
  uint8_t *Cur = nullptr;
  uint8_t *End = nullptr;
  size_t ChunkBytes;
  size_t Allocated = 0;
  size_t Reserved = 0;
};

} // namespace pose

#endif // POSE_SUPPORT_ARENA_H
