#ifndef SHOAL_SERVE_SERVING_INDEX_H_
#define SHOAL_SERVE_SERVING_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/taxonomy.h"
#include "core/topic_describer.h"
#include "util/mmap_file.h"
#include "util/result.h"
#include "util/status.h"

namespace shoal::serve {

inline constexpr uint32_t kNoQuery = static_cast<uint32_t>(-1);
inline constexpr uint32_t kNoCategoryId = static_cast<uint32_t>(-1);

// One entry of a query's posting list: a topic and the topic-description
// matching score r(q, t) = sqrt(pop * con) of Sec 2.3. Lists are stored
// descending by score (ties broken towards the smaller topic id), so the
// serving top-k is a prefix read, and the top-1 topic is by construction
// the topic whose description ranking scores this query highest.
struct Posting {
  uint32_t topic = core::kNoTopic;
  double score = 0.0;

  bool operator==(const Posting& other) const {
    return topic == other.topic && score == other.score;
  }
};

// How ReadServingIndexFile installs a v2 index.
struct LoadOptions {
  // Map the file read-only and serve straight from the page cache
  // (O(1) allocations; the kernel pages data in on demand). false reads
  // the file into an owned, 64-byte-aligned buffer instead — same
  // accessors, private copy.
  bool use_mmap = true;
  // Checksum the whole image before serving from it. One streaming CRC
  // pass; turning it off leaves bit-flips to the structural sweep alone.
  bool verify_crc = true;
};

struct ServingIndexData;

// The immutable artefact the online tier serves from. Since format v2
// this is a *flat* index: one contiguous, pointer-free, 64-byte-aligned
// image (a section table over typed arrays + string arenas) that is
// either mmap'd read-only straight off disk or held in one owned
// allocation. Every accessor reads directly out of the image — loading
// never deserializes, so index install cost does not grow with index
// size, and request threads share the image with no locks anywhere.
//
// Contents:
//   * topic tree: per-topic parent / level / member count, descriptions
//     (representative queries, best first), a children CSR and the root
//     list;
//   * item->entity->topic maps: deepest topic and ontology category per
//     entity;
//   * the interned query dictionary (raw + normalized arenas, sort
//     permutations for binary search) with per-query posting lists laid
//     out as parallel topic/score arrays.
//
// Build one offline with CompileServingIndex(...).Build() and load it
// online with ReadServingIndexFile. Every image, encoded or loaded,
// passes the same structural sweep before anything serves from it.
class ServingIndex {
 public:
  struct Lookup {
    enum class Match { kNone, kExact, kNormalized };
    uint32_t query = kNoQuery;
    Match match = Match::kNone;
  };

  // Postings of one query as a zero-copy view over the image's parallel
  // arrays (4-byte topics and 8-byte scores are stored apart so neither
  // pads the other).
  struct PostingSpan {
    const uint32_t* topics = nullptr;
    const double* scores = nullptr;
    size_t count = 0;

    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    uint32_t topic(size_t i) const { return topics[i]; }
    double score(size_t i) const { return scores[i]; }
    Posting operator[](size_t i) const { return Posting{topics[i], scores[i]}; }
  };

  // Move-only. A move hands over the backing storage, whose address
  // does not change, so the section pointers stay valid.
  ServingIndex() = default;

  // --- scalar header -----------------------------------------------------
  uint64_t version() const { return version_; }
  size_t num_topics() const { return num_topics_; }
  size_t num_entities() const { return num_entities_; }
  size_t num_queries() const { return num_queries_; }

  // Bytes of the backing image (what serve.index.resident_bytes
  // reports), and whether they live in a file mapping or a private
  // allocation.
  size_t resident_bytes() const { return size_; }
  bool mmap_backed() const { return mmap_backed_; }

  // --- topics ------------------------------------------------------------
  uint32_t parent(uint32_t t) const { return parent_[t]; }
  uint32_t level(uint32_t t) const { return level_[t]; }
  uint32_t topic_size(uint32_t t) const { return topic_size_[t]; }
  size_t num_descriptions(uint32_t t) const {
    return desc_offsets_[t + 1] - desc_offsets_[t];
  }
  // The i-th description query of topic `t`, best first.
  std::string_view description(uint32_t t, size_t i) const {
    const uint64_t d = desc_offsets_[t] + i;
    return {desc_arena_ + desc_bounds_[d],
            static_cast<size_t>(desc_bounds_[d + 1] - desc_bounds_[d])};
  }

  std::span<const uint32_t> roots() const { return {roots_, num_roots_}; }

  // Children of `t`, ascending, as a [first, last) range into the CSR.
  std::pair<const uint32_t*, const uint32_t*> children(uint32_t t) const {
    return {child_ids_ + child_offsets_[t], child_ids_ + child_offsets_[t + 1]};
  }

  // Topic ids from the root down to `t` (root first, `t` last).
  std::vector<uint32_t> PathToRoot(uint32_t t) const;

  // --- entities ------------------------------------------------------------
  uint32_t entity_topic(uint32_t e) const { return entity_topic_[e]; }
  uint32_t entity_category(uint32_t e) const { return entity_category_[e]; }

  // --- queries -------------------------------------------------------------
  std::string_view query_text(uint32_t q) const {
    return {text_arena_ + text_bounds_[q],
            static_cast<size_t>(text_bounds_[q + 1] - text_bounds_[q])};
  }
  std::string_view query_norm(uint32_t q) const {
    return {norm_arena_ + norm_bounds_[q],
            static_cast<size_t>(norm_bounds_[q + 1] - norm_bounds_[q])};
  }
  PostingSpan postings(uint32_t q) const {
    const uint64_t first = post_offsets_[q];
    return {post_topics_ + first, post_scores_ + first,
            static_cast<size_t>(post_offsets_[q + 1] - first)};
  }

  // Exact raw-text match first, then the normalized form; kNone when the
  // query is not in the dictionary.
  Lookup Find(const std::string& raw_query) const;

 private:
  friend util::Result<ServingIndex> BindServingImage(util::MmapFile mapped,
                                                     std::string owned,
                                                     const LoadOptions& options,
                                                     const std::string& origin);
  friend util::Result<std::string> EncodeServingIndexFile(
      const ServingIndexData& data);

  // Checks the image at base_/size_ and points the accessors into it:
  // the sweep every image passes, on write and on read.
  util::Status Bind(const LoadOptions& options, const std::string& origin);

  struct FreeAligned {
    void operator()(uint8_t* at) const;
  };

  // Backing storage: exactly one of the two is live (or neither, for a
  // default-constructed empty index).
  util::MmapFile mapped_;
  std::unique_ptr<uint8_t[], FreeAligned> owned_;  // 64-byte aligned
  bool mmap_backed_ = false;

  const uint8_t* base_ = nullptr;
  size_t size_ = 0;

  // Header scalars and section pointers, cached by Bind().
  uint64_t version_ = 0;
  size_t num_topics_ = 0;
  size_t num_entities_ = 0;
  size_t num_queries_ = 0;
  size_t num_roots_ = 0;
  const uint32_t* parent_ = nullptr;
  const uint32_t* level_ = nullptr;
  const uint32_t* topic_size_ = nullptr;
  const uint64_t* desc_offsets_ = nullptr;
  const uint64_t* desc_bounds_ = nullptr;
  const char* desc_arena_ = nullptr;
  const uint32_t* entity_topic_ = nullptr;
  const uint32_t* entity_category_ = nullptr;
  const uint64_t* text_bounds_ = nullptr;
  const char* text_arena_ = nullptr;
  const uint64_t* norm_bounds_ = nullptr;
  const char* norm_arena_ = nullptr;
  const uint64_t* post_offsets_ = nullptr;
  const uint32_t* post_topics_ = nullptr;
  const double* post_scores_ = nullptr;
  const uint64_t* child_offsets_ = nullptr;
  const uint32_t* child_ids_ = nullptr;
  const uint32_t* roots_ = nullptr;
  const uint32_t* exact_order_ = nullptr;
  const uint32_t* norm_order_ = nullptr;
};

// The mutable builder form: plain vectors, free to edit.
// CompileServingIndex produces one; Build() and WriteServingIndexFile
// encode it into the flat image, which must pass the reader's sweep.
struct ServingIndexData {
  uint64_t version = 0;  // compiler-stamped artefact version

  // Topics, indexed by taxonomy topic id. Parents precede children.
  std::vector<uint32_t> parent;                        // kNoTopic = root
  std::vector<uint32_t> level;                         // 0 for roots
  std::vector<uint32_t> topic_size;                    // member entities
  std::vector<std::vector<std::string>> descriptions;  // best query first

  // Entities (== items).
  std::vector<uint32_t> entity_topic;     // deepest topic or kNoTopic
  std::vector<uint32_t> entity_category;  // ontology leaf or kNoCategoryId

  // Interned queries, ascending original query id (deterministic). The
  // encoder derives each normalized form (text::NormalizeQuery).
  std::vector<std::string> query_text;             // raw form
  std::vector<std::vector<Posting>> posting_list;  // per query, score desc

  // Freezes into the flat serving form: one aligned allocation holding
  // the image WriteServingIndexFile persists, bound through the sweep.
  util::Result<ServingIndex> Build() const;
};

struct CompileOptions {
  // Artefact version stamped into the file and echoed by /healthz; bump
  // it per publish so hot reloads are observable end to end.
  uint64_t version = 1;
  // Postings kept per query, best first; 0 keeps every scored pair. Any
  // cap >= 1 preserves the top-1 = argmax r(q, t) guarantee.
  size_t max_postings_per_query = 64;
};

// Compiles a described taxonomy into serving form: inverts the
// per-topic query rankings its descriptions were written from
// (Taxonomy::rankings()) into per-query posting lists, and takes the
// topic descriptions as they stand. It never describes; the build and
// the daemon both publish through it. A taxonomy without rankings
// (never described, or loaded from disk), or one described with
// options other than `describer_options`, is InvalidArgument: describe
// it first. Of `input` only `query_texts` is read, the dictionary the
// ranked query ids index into; only queries with postings are
// interned. `entity_categories` may be null (categories become
// kNoCategoryId); when present it must have one entry per entity. The
// result is checked when it is encoded.
util::Result<ServingIndexData> CompileServingIndex(
    const core::Taxonomy& taxonomy, const core::DescriberInput& input,
    const core::DescriberOptions& describer_options,
    const std::vector<uint32_t>* entity_categories,
    const CompileOptions& options);

// --- binary format --------------------------------------------------------
// Both formats open with the same sniffable frame: 8-byte magic
// "SHOALIDX" then a u32 format version at offset 8. Version 2 is the
// flat little-endian image described above — magic | u32 2 |
// u32 crc32(bytes[16..end)) | fixed header | section table |
// 64-byte-aligned sections — written atomically and loaded by mmap with
// CRC + bounds validation over the mapped region (see DESIGN.md §12 for
// the layout diagram). Any other version (including the retired v1
// record stream) is rejected with a "recompile" error.
//
// Every count and offset read back is bounds-checked against the file,
// so truncated / bit-flipped / oversized-count images fail with a clean
// Status, never undefined behaviour.

inline constexpr uint32_t kServingIndexFormatVersion = 2;

// The complete file image for `data` (magic through last section).
// Before encoding it checks only what the layout indexes by: the
// arrays agree in length and every parent is kNoTopic or a topic id.
// The image then passes the sweep ReadServingIndexFile runs (CRC aside),
// so every other invariant is refused here as InvalidArgument.
util::Result<std::string> EncodeServingIndexFile(const ServingIndexData& data);

// Encodes and writes the file atomically; nothing is written for data
// the encoder refuses.
util::Status WriteServingIndexFile(const std::string& path,
                                   const ServingIndexData& data);

// Loads a file, binding the image in place (mmap by default). Always
// returns a fully validated, ready-to-serve index or a clean error.
util::Result<ServingIndex> ReadServingIndexFile(const std::string& path,
                                                const LoadOptions& options = {});

}  // namespace shoal::serve

#endif  // SHOAL_SERVE_SERVING_INDEX_H_
