// Non-relocating block storage shared by the EdgeblockArray and the Coarse
// Adjacency List.
//
// A ChunkedArena is a growable array of fixed-size *blocks*. Each block is
// split into planes (one per template type, `extents[P]` elements of
// `Planes...[P]` per block), so callers keep the hot cells and the colder
// metadata in separate, densely packed arrays. Storage comes in chunks:
// chunk c holds `first << c` blocks, so capacity doubles with every chunk
// and growth appends a chunk instead of copying the store. Blocks handed out
// never move — pointers and references into the arena stay valid across
// growth.
//
// Every chunk is one anonymous mapping (page aligned, so aligned to kAlign,
// a 64-byte cache line) and every plane inside it starts on a kAlign
// boundary, so an element run whose byte size is a multiple of 64 (a default
// 8-cell EdgeblockArray subblock is 128 B) covers whole cache lines. Chunks
// bypass the malloc heap: the OS faults pages in on first touch, and freeing
// a large arena returns its pages without trimming or fragmenting the heap
// that the program's small allocations live in.
//
// Block index -> (chunk, offset) is O(1): with j = block + first, the chunk
// is bit_width(j) - 1 - log2(first) and the offset is j - (first << chunk).
//
// Chunk memory is raw: the arena never constructs or clears elements. The
// planes must hold implicit-lifetime, trivially destructible types, and the
// owner initializes a block before first use.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>

#include <sys/mman.h>

namespace gt {

template <typename... Planes>
class ChunkedArena {
    static_assert(sizeof...(Planes) > 0, "an arena needs at least one plane");
    static_assert((std::is_trivially_destructible_v<Planes> && ...),
                  "arena planes are never destroyed element by element");
    static_assert((std::is_trivially_copyable_v<Planes> && ...),
                  "arena planes live in raw, implicitly created storage");

public:
    static constexpr std::size_t kAlign = 64;
    static constexpr std::size_t kPlanes = sizeof...(Planes);
    /// 32 chunks address at least 2^32 - 1 blocks for any first-chunk size.
    static constexpr std::uint32_t kMaxChunks = 32;
    /// Largest first chunk (keeps every block offset within 32 bits).
    static constexpr std::uint64_t kMaxFirstChunkBlocks = std::uint64_t{1}
                                                          << 31;
    /// Elements of each plane per block.
    using Extents = std::array<std::uint32_t, kPlanes>;

    /// A block's position: chunk index and block offset within the chunk.
    struct Pos {
        std::uint32_t chunk;
        std::uint32_t offset;
    };

    /// `first_chunk_blocks` is clamped to [1, kMaxFirstChunkBlocks] and
    /// rounded up to a power of two. No storage is allocated until the
    /// first grow().
    ChunkedArena(Extents extents, std::uint64_t first_chunk_blocks) noexcept
        : extents_(extents) {
        set_first_chunk_blocks(first_chunk_blocks);
    }

    /// Resizes the first chunk. Only valid while no chunk exists (the
    /// index mapping depends on it).
    void set_first_chunk_blocks(std::uint64_t blocks) noexcept {
        first_ = std::bit_ceil(
            std::clamp<std::uint64_t>(blocks, 1, kMaxFirstChunkBlocks));
        shift_ = static_cast<std::uint32_t>(std::countr_zero(first_));
    }

    /// Blocks the allocated chunks can hold.
    [[nodiscard]] std::uint64_t capacity() const noexcept {
        return chunk_count_ == 0 ? 0 : (first_ << chunk_count_) - first_;
    }

    /// Blocks the chunks will hold once grow() appends the next one (valid
    /// while fewer than kMaxChunks chunks exist).
    [[nodiscard]] std::uint64_t capacity_after_grow() const noexcept {
        return (first_ << (chunk_count_ + 1)) - first_;
    }

    /// Appends the next chunk (twice the size of the last). Throws
    /// std::bad_alloc or std::length_error; on a throw the arena is
    /// unchanged.
    void grow() {
        if (chunk_count_ == kMaxChunks) {
            throw std::length_error("ChunkedArena: chunk table full");
        }
        const std::uint64_t blocks = first_ << chunk_count_;
        std::array<std::size_t, kPlanes> offsets{};
        std::size_t total = 0;
        for (std::size_t p = 0; p < kPlanes; ++p) {
            offsets[p] = total;
            const std::size_t bytes = blocks * extents_[p] * kElemBytes[p];
            total += (bytes + kAlign - 1) / kAlign * kAlign;
        }
        void* mapped = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mapped == MAP_FAILED) {
            throw std::bad_alloc();
        }
        auto* mem = static_cast<std::byte*>(mapped);
        Chunk& chunk = chunks_[chunk_count_];
        chunk.mem = Mapping(mem, Unmap{total});
        chunk.planes = plane_pointers(mem, offsets,
                                      std::index_sequence_for<Planes...>{});
        ++chunk_count_;
    }

    [[nodiscard]] Pos locate(std::uint32_t block) const noexcept {
        const std::uint64_t j = std::uint64_t{block} + first_;
        const auto chunk =
            static_cast<std::uint32_t>(std::bit_width(j)) - 1 - shift_;
        return Pos{chunk, static_cast<std::uint32_t>(j - (first_ << chunk))};
    }

    /// First element of plane P of the block at `pos`.
    template <std::size_t P>
    [[nodiscard]] auto* at(Pos pos) const noexcept {
        return std::get<P>(chunks_[pos.chunk].planes) +
               static_cast<std::size_t>(pos.offset) * extents_[P];
    }
    template <std::size_t P>
    [[nodiscard]] auto* at(std::uint32_t block) const noexcept {
        return at<P>(locate(block));
    }

private:
    static constexpr std::array<std::size_t, kPlanes> kElemBytes{
        sizeof(Planes)...};

    struct Unmap {
        std::size_t bytes = 0;
        void operator()(std::byte* p) const noexcept { ::munmap(p, bytes); }
    };
    using Mapping = std::unique_ptr<std::byte, Unmap>;
    struct Chunk {
        Mapping mem;
        std::tuple<Planes*...> planes{};
    };

    template <std::size_t... P>
    static std::tuple<Planes*...> plane_pointers(
        std::byte* mem, const std::array<std::size_t, kPlanes>& offsets,
        std::index_sequence<P...> /*planes*/) noexcept {
        return {reinterpret_cast<Planes*>(mem + offsets[P])...};
    }

    Extents extents_;
    std::uint64_t first_ = 1;
    std::uint32_t shift_ = 0;
    std::uint32_t chunk_count_ = 0;
    std::array<Chunk, kMaxChunks> chunks_{};
};

}  // namespace gt
