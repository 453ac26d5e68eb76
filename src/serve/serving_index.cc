#include "serve/serving_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <new>
#include <utility>

#include "obs/trace.h"
#include "text/normalize.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace shoal::serve {

namespace {

// The flat image is read in place with native loads, so the on-disk
// format is little-endian by definition.
static_assert(std::endian::native == std::endian::little,
              "the serving index v2 image is little-endian");

constexpr char kMagic[8] = {'S', 'H', 'O', 'A', 'L', 'I', 'D', 'X'};

// ---- v2 image geometry ----------------------------------------------------
//
//   [0,8)     magic "SHOALIDX"
//   [8,12)    u32 format version (2)
//   [12,16)   u32 CRC-32 of bytes [16, file end)
//   [16,120)  13 u64 header fields (HeaderField order)
//   [120,440) section table: kNumSections x { u64 offset, u64 bytes }
//   [448,...) sections, each 64-byte aligned, SectionId order, no gaps
//             beyond alignment padding
//
// The table is recomputable from the header counts; validation exploits
// that by recomputing the expected layout and requiring an exact match,
// which subsumes alignment, overlap, and bounds checking in one shot.

enum HeaderField : size_t {
  kHdrIndexVersion = 0,
  kHdrFileBytes,
  kHdrNumTopics,
  kHdrNumEntities,
  kHdrNumQueries,
  kHdrNumChildren,
  kHdrNumRoots,
  kHdrNumPostings,
  kHdrNumDescriptions,
  kHdrDescArenaBytes,
  kHdrTextArenaBytes,
  kHdrNormArenaBytes,
  kHdrNormalizerFingerprint,
  kNumHeaderFields,
};

enum SectionId : size_t {
  kSecParent = 0,      // u32[T]
  kSecLevel,           // u32[T]
  kSecTopicSize,       // u32[T]
  kSecDescOffsets,     // u64[T+1] into the description-bounds array
  kSecDescBounds,      // u64[D+1] byte offsets into the description arena
  kSecDescArena,       // char[desc_arena_bytes]
  kSecEntityTopic,     // u32[E]
  kSecEntityCategory,  // u32[E]
  kSecTextBounds,      // u64[Q+1]
  kSecTextArena,       // char[text_arena_bytes]
  kSecNormBounds,      // u64[Q+1]
  kSecNormArena,       // char[norm_arena_bytes]
  kSecPostOffsets,     // u64[Q+1]
  kSecPostTopics,      // u32[P]
  kSecPostScores,      // f64[P]
  kSecChildOffsets,    // u64[T+1]
  kSecChildIds,        // u32[C]
  kSecRoots,           // u32[R]
  kSecExactOrder,      // u32[Q]
  kSecNormOrder,       // u32[Q]
  kNumSections,
};

constexpr size_t kHeaderOffset = 16;
constexpr size_t kTableOffset = kHeaderOffset + kNumHeaderFields * 8;
constexpr size_t kSectionAlign = 64;

constexpr size_t Align64(size_t n) {
  return (n + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

constexpr size_t kSectionsStart =
    Align64(kTableOffset + kNumSections * 16);

struct Layout {
  uint64_t offsets[kNumSections];
  uint64_t bytes[kNumSections];
  uint64_t total = 0;
};

// The unique section layout implied by the header counts.
Layout ComputeLayout(const uint64_t* hdr) {
  const uint64_t T = hdr[kHdrNumTopics];
  const uint64_t E = hdr[kHdrNumEntities];
  const uint64_t Q = hdr[kHdrNumQueries];
  const uint64_t C = hdr[kHdrNumChildren];
  const uint64_t R = hdr[kHdrNumRoots];
  const uint64_t P = hdr[kHdrNumPostings];
  const uint64_t D = hdr[kHdrNumDescriptions];
  Layout layout;
  layout.bytes[kSecParent] = 4 * T;
  layout.bytes[kSecLevel] = 4 * T;
  layout.bytes[kSecTopicSize] = 4 * T;
  layout.bytes[kSecDescOffsets] = 8 * (T + 1);
  layout.bytes[kSecDescBounds] = 8 * (D + 1);
  layout.bytes[kSecDescArena] = hdr[kHdrDescArenaBytes];
  layout.bytes[kSecEntityTopic] = 4 * E;
  layout.bytes[kSecEntityCategory] = 4 * E;
  layout.bytes[kSecTextBounds] = 8 * (Q + 1);
  layout.bytes[kSecTextArena] = hdr[kHdrTextArenaBytes];
  layout.bytes[kSecNormBounds] = 8 * (Q + 1);
  layout.bytes[kSecNormArena] = hdr[kHdrNormArenaBytes];
  layout.bytes[kSecPostOffsets] = 8 * (Q + 1);
  layout.bytes[kSecPostTopics] = 4 * P;
  layout.bytes[kSecPostScores] = 8 * P;
  layout.bytes[kSecChildOffsets] = 8 * (T + 1);
  layout.bytes[kSecChildIds] = 4 * C;
  layout.bytes[kSecRoots] = 4 * R;
  layout.bytes[kSecExactOrder] = 4 * Q;
  layout.bytes[kSecNormOrder] = 4 * Q;
  uint64_t at = kSectionsStart;
  for (size_t i = 0; i < kNumSections; ++i) {
    at = Align64(at);
    layout.offsets[i] = at;
    at += layout.bytes[i];
  }
  layout.total = at;
  return layout;
}

template <typename T>
T LoadScalar(const uint8_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

template <typename T>
void StoreScalar(std::string* image, size_t at, T value) {
  std::memcpy(image->data() + at, &value, sizeof(value));
}

// Fingerprint of the live query normalizer over a fixed probe set — an
// O(1) stand-in for re-normalizing every stored query at load time. A
// serving binary whose normalizer drifted from the compiler's produces
// a different fingerprint and the index is rejected (silent lookup
// misses are the failure mode this guards against).
uint64_t NormalizerFingerprint() {
  static const uint64_t fingerprint = [] {
    static constexpr const char* kProbes[] = {
        "",
        "Beach  Chair",
        "ROUTER-42 pro",
        "  Mixed   CASE query ",
        "caf\xC3\xA9 au lait",
        "a-b_c.d/e 123\tx",
    };
    uint64_t h = 1469598103934665603ull;  // FNV-1a 64
    for (const char* probe : kProbes) {
      const std::string normalized = text::NormalizeQuery(probe);
      for (unsigned char c : normalized) {
        h = (h ^ c) * 1099511628211ull;
      }
      h = (h ^ 0xffu) * 1099511628211ull;  // probe separator
    }
    return h;
  }();
  return fingerprint;
}

// Sorts query ids by their text, ties towards the smaller id, so
// duplicate texts resolve deterministically to the first intern.
std::vector<uint32_t> OrderByText(const std::vector<std::string>& texts) {
  std::vector<uint32_t> order(texts.size());
  for (uint32_t i = 0; i < texts.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (texts[a] != texts[b]) return texts[a] < texts[b];
    return a < b;
  });
  return order;
}

uint8_t* AllocateAligned(size_t bytes) {
  return static_cast<uint8_t*>(
      ::operator new[](bytes, std::align_val_t(kSectionAlign)));
}

}  // namespace

// ---- flat index -----------------------------------------------------------

void ServingIndex::FreeAligned::operator()(uint8_t* at) const {
  ::operator delete[](at, std::align_val_t(kSectionAlign));
}

util::Status ServingIndex::Bind(const LoadOptions& options,
                                const std::string& origin) {
  auto fail = [&origin](const std::string& message) {
    return util::Status::InvalidArgument(origin + ": " + message);
  };
  // Magic and format first, so a file of another format (including the
  // retired v1 record stream) gets the actionable error, not "truncated".
  if (size_ < sizeof(kMagic) + sizeof(uint32_t) ||
      std::memcmp(base_, kMagic, sizeof(kMagic)) != 0) {
    return fail("not a SHOAL serving index file");
  }
  const uint32_t format = LoadScalar<uint32_t>(base_ + 8);
  if (format != kServingIndexFormatVersion) {
    return fail(util::StringPrintf(
        "serving index format version %u, this build reads only version "
        "%u; recompile the index from its taxonomy (shoal_cli build "
        "--serving-index-out)",
        format, kServingIndexFormatVersion));
  }
  if (size_ < kSectionsStart) {
    return fail(util::StringPrintf(
        "serving index image of %zu bytes is smaller than the %zu-byte "
        "preamble — truncated",
        size_, kSectionsStart));
  }
  if (options.verify_crc) {
    const uint32_t stored = LoadScalar<uint32_t>(base_ + 12);
    const uint32_t actual =
        util::Crc32(base_ + kHeaderOffset, size_ - kHeaderOffset);
    if (stored != actual) {
      return fail(util::StringPrintf(
          "image CRC mismatch (stored %08x, computed %08x) — the serving "
          "index is corrupt",
          stored, actual));
    }
  }

  uint64_t hdr[kNumHeaderFields];
  std::memcpy(hdr, base_ + kHeaderOffset, sizeof(hdr));
  if (hdr[kHdrFileBytes] != size_) {
    return fail(util::StringPrintf(
        "header claims %llu image bytes but %zu are present",
        static_cast<unsigned long long>(hdr[kHdrFileBytes]), size_));
  }
  // Oversized-count guard: every section must also physically fit, so a
  // lying count can never size a pointer past the image. The 2^32 cap
  // makes the layout arithmetic below overflow-free.
  for (size_t field = kHdrNumTopics; field <= kHdrNormArenaBytes; ++field) {
    if (hdr[field] >= (1ull << 32) || hdr[field] > size_) {
      return fail(util::StringPrintf(
          "header count %zu is oversized (%llu for a %zu-byte image)", field,
          static_cast<unsigned long long>(hdr[field]), size_));
    }
  }
  if (hdr[kHdrNumChildren] + hdr[kHdrNumRoots] != hdr[kHdrNumTopics]) {
    return fail("children + roots do not account for every topic");
  }

  const Layout layout = ComputeLayout(hdr);
  if (layout.total != size_) {
    return fail(util::StringPrintf(
        "header counts imply a %llu-byte image but %zu bytes are present",
        static_cast<unsigned long long>(layout.total), size_));
  }
  for (size_t i = 0; i < kNumSections; ++i) {
    const uint64_t offset = LoadScalar<uint64_t>(base_ + kTableOffset + i * 16);
    const uint64_t bytes =
        LoadScalar<uint64_t>(base_ + kTableOffset + i * 16 + 8);
    if (offset != layout.offsets[i] || bytes != layout.bytes[i]) {
      return fail(util::StringPrintf(
          "section %zu at offset %llu (%llu bytes) disagrees with the "
          "layout implied by the header (offset %llu, %llu bytes) — "
          "misaligned or corrupt section table",
          i, static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(bytes),
          static_cast<unsigned long long>(layout.offsets[i]),
          static_cast<unsigned long long>(layout.bytes[i])));
    }
  }

  version_ = hdr[kHdrIndexVersion];
  num_topics_ = static_cast<size_t>(hdr[kHdrNumTopics]);
  num_entities_ = static_cast<size_t>(hdr[kHdrNumEntities]);
  num_queries_ = static_cast<size_t>(hdr[kHdrNumQueries]);
  num_roots_ = static_cast<size_t>(hdr[kHdrNumRoots]);
  auto section = [&](SectionId id) { return base_ + layout.offsets[id]; };
  parent_ = reinterpret_cast<const uint32_t*>(section(kSecParent));
  level_ = reinterpret_cast<const uint32_t*>(section(kSecLevel));
  topic_size_ = reinterpret_cast<const uint32_t*>(section(kSecTopicSize));
  desc_offsets_ = reinterpret_cast<const uint64_t*>(section(kSecDescOffsets));
  desc_bounds_ = reinterpret_cast<const uint64_t*>(section(kSecDescBounds));
  desc_arena_ = reinterpret_cast<const char*>(section(kSecDescArena));
  entity_topic_ = reinterpret_cast<const uint32_t*>(section(kSecEntityTopic));
  entity_category_ =
      reinterpret_cast<const uint32_t*>(section(kSecEntityCategory));
  text_bounds_ = reinterpret_cast<const uint64_t*>(section(kSecTextBounds));
  text_arena_ = reinterpret_cast<const char*>(section(kSecTextArena));
  norm_bounds_ = reinterpret_cast<const uint64_t*>(section(kSecNormBounds));
  norm_arena_ = reinterpret_cast<const char*>(section(kSecNormArena));
  post_offsets_ = reinterpret_cast<const uint64_t*>(section(kSecPostOffsets));
  post_topics_ = reinterpret_cast<const uint32_t*>(section(kSecPostTopics));
  post_scores_ = reinterpret_cast<const double*>(section(kSecPostScores));
  child_offsets_ =
      reinterpret_cast<const uint64_t*>(section(kSecChildOffsets));
  child_ids_ = reinterpret_cast<const uint32_t*>(section(kSecChildIds));
  roots_ = reinterpret_cast<const uint32_t*>(section(kSecRoots));
  exact_order_ = reinterpret_cast<const uint32_t*>(section(kSecExactOrder));
  norm_order_ = reinterpret_cast<const uint32_t*>(section(kSecNormOrder));

  // Structural sweep, on every image written or loaded: after this,
  // every accessor is provably in bounds, every parent walk terminates,
  // and the derived sections (children CSR, root list, dictionary
  // orders) agree with what they were derived from, even on an image
  // whose CRC was skipped or forged. Streaming reads, no allocation.
  const uint64_t num_children = hdr[kHdrNumChildren];
  const uint64_t num_postings = hdr[kHdrNumPostings];
  const uint64_t num_descriptions = hdr[kHdrNumDescriptions];
  for (uint32_t t = 0; t < num_topics_; ++t) {
    if (parent_[t] == core::kNoTopic) {
      if (level_[t] != 0) {
        return fail(util::StringPrintf(
            "root topic %u has level %u", t, level_[t]));
      }
    } else {
      if (parent_[t] >= t) {
        return fail(util::StringPrintf(
            "topic %u does not follow its parent %u", t, parent_[t]));
      }
      if (level_[t] != level_[parent_[t]] + 1) {
        return fail(util::StringPrintf(
            "topic %u level %u is not parent level %u + 1", t, level_[t],
            level_[parent_[t]]));
      }
    }
  }
  auto check_monotone = [&](const uint64_t* bounds, uint64_t count,
                            uint64_t limit, const char* what) {
    if (bounds[0] != 0) {
      return fail(util::StringPrintf("%s does not start at 0", what));
    }
    for (uint64_t i = 0; i < count; ++i) {
      if (bounds[i + 1] < bounds[i]) {
        return fail(util::StringPrintf("%s is not monotone at %llu", what,
                                       static_cast<unsigned long long>(i)));
      }
    }
    if (bounds[count] != limit) {
      return fail(util::StringPrintf(
          "%s ends at %llu, expected %llu", what,
          static_cast<unsigned long long>(bounds[count]),
          static_cast<unsigned long long>(limit)));
    }
    return util::Status::OK();
  };
  SHOAL_RETURN_IF_ERROR(check_monotone(desc_offsets_, num_topics_,
                                       num_descriptions,
                                       "description offsets"));
  SHOAL_RETURN_IF_ERROR(check_monotone(desc_bounds_, num_descriptions,
                                       hdr[kHdrDescArenaBytes],
                                       "description bounds"));
  SHOAL_RETURN_IF_ERROR(check_monotone(text_bounds_, num_queries_,
                                       hdr[kHdrTextArenaBytes],
                                       "query text bounds"));
  SHOAL_RETURN_IF_ERROR(check_monotone(norm_bounds_, num_queries_,
                                       hdr[kHdrNormArenaBytes],
                                       "normalized query bounds"));
  SHOAL_RETURN_IF_ERROR(check_monotone(post_offsets_, num_queries_,
                                       num_postings, "posting offsets"));
  SHOAL_RETURN_IF_ERROR(check_monotone(child_offsets_, num_topics_,
                                       num_children, "children offsets"));
  for (size_t e = 0; e < num_entities_; ++e) {
    if (entity_topic_[e] != core::kNoTopic && entity_topic_[e] >= num_topics_) {
      return fail(util::StringPrintf(
          "entity %zu names topic %u of %zu", e, entity_topic_[e],
          num_topics_));
    }
  }
  for (uint64_t p = 0; p < num_postings; ++p) {
    if (post_topics_[p] >= num_topics_) {
      return fail(util::StringPrintf(
          "posting %llu names topic %u of %zu",
          static_cast<unsigned long long>(p), post_topics_[p], num_topics_));
    }
    if (!std::isfinite(post_scores_[p]) || post_scores_[p] < 0.0) {
      return fail(util::StringPrintf(
          "posting %llu has a non-finite or negative score",
          static_cast<unsigned long long>(p)));
    }
  }
  for (uint32_t q = 0; q < num_queries_; ++q) {
    const PostingSpan span = postings(q);
    for (size_t i = 1; i < span.size(); ++i) {
      const bool ordered =
          span.score(i - 1) > span.score(i) ||
          (span.score(i - 1) == span.score(i) &&
           span.topic(i - 1) < span.topic(i));
      if (!ordered) {
        return fail(util::StringPrintf(
            "query %u posting list is not sorted by (score desc, topic "
            "asc) at entry %zu",
            q, i));
      }
    }
    if (exact_order_[q] >= num_queries_ || norm_order_[q] >= num_queries_) {
      return fail(util::StringPrintf(
          "dictionary order entry %u names query %u of %zu", q,
          std::max(exact_order_[q], norm_order_[q]), num_queries_));
    }
  }
  for (uint64_t c = 0; c < num_children; ++c) {
    if (child_ids_[c] >= num_topics_) {
      return fail("children CSR names a topic out of range");
    }
  }
  for (size_t r = 0; r < num_roots_; ++r) {
    if (roots_[r] >= num_topics_) {
      return fail("root list names a topic out of range");
    }
  }
  if (hdr[kHdrNormalizerFingerprint] != NormalizerFingerprint()) {
    return fail(
        "index was compiled with a different query normalizer than this "
        "binary serves with — recompile the index");
  }

  for (uint32_t t = 0; t < num_topics_; ++t) {
    auto [first, last] = children(t);
    for (const uint32_t* child = first; child != last; ++child) {
      if (parent_[*child] != t) {
        return fail("children CSR disagrees with the parent array");
      }
    }
  }
  size_t root_at = 0;
  for (uint32_t t = 0; t < num_topics_; ++t) {
    if (parent_[t] != core::kNoTopic) continue;
    if (root_at >= num_roots_ || roots_[root_at++] != t) {
      return fail("root list disagrees with the parent array");
    }
  }
  for (uint32_t q = 0; q + 1 < num_queries_; ++q) {
    if (query_text(exact_order_[q]) > query_text(exact_order_[q + 1]) ||
        query_norm(norm_order_[q]) > query_norm(norm_order_[q + 1])) {
      return fail("dictionary sort orders are not sorted");
    }
  }
  return util::Status::OK();
}

std::vector<uint32_t> ServingIndex::PathToRoot(uint32_t t) const {
  std::vector<uint32_t> path;
  for (uint32_t cur = t; cur != core::kNoTopic; cur = parent_[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ServingIndex::Lookup ServingIndex::Find(const std::string& raw_query) const {
  // Binary search through a sort permutation; returns the smallest
  // matching query id or kNoQuery.
  auto find_ordered = [this](const uint32_t* order, auto text_of,
                             std::string_view needle) {
    const uint32_t* last = order + num_queries_;
    const uint32_t* it = std::lower_bound(
        order, last, needle,
        [&](uint32_t q, std::string_view want) { return text_of(q) < want; });
    if (it == last || text_of(*it) != needle) return kNoQuery;
    return *it;
  };
  Lookup result;
  result.query = find_ordered(
      exact_order_, [this](uint32_t q) { return query_text(q); }, raw_query);
  if (result.query != kNoQuery) {
    result.match = Lookup::Match::kExact;
    return result;
  }
  const std::string normalized = text::NormalizeQuery(raw_query);
  if (!normalized.empty()) {
    result.query = find_ordered(
        norm_order_, [this](uint32_t q) { return query_norm(q); }, normalized);
    if (result.query != kNoQuery) {
      result.match = Lookup::Match::kNormalized;
      return result;
    }
  }
  result.match = Lookup::Match::kNone;
  return result;
}

// ---- builder --------------------------------------------------------------

// Factory shared by Build() and the file loaders: takes ownership of
// whichever backing store is live, binds + validates, and returns the
// ready index.
util::Result<ServingIndex> BindServingImage(util::MmapFile mapped,
                                            std::string owned,
                                            const LoadOptions& options,
                                            const std::string& origin) {
  ServingIndex index;
  if (mapped.size() > 0) {
    index.mapped_ = std::move(mapped);
    index.base_ = index.mapped_.data();
    index.size_ = index.mapped_.size();
    index.mmap_backed_ = true;
  } else {
    index.owned_.reset(AllocateAligned(owned.size()));
    std::memcpy(index.owned_.get(), owned.data(), owned.size());
    index.base_ = index.owned_.get();
    index.size_ = owned.size();
    index.mmap_backed_ = false;
  }
  SHOAL_RETURN_IF_ERROR(index.Bind(options, origin));
  return index;
}

namespace {

// Lays `data` out as a v2 image. It checks only what the layout indexes
// by; the sweep checks the image it produces.
util::Result<std::string> EncodeImage(const ServingIndexData& data) {
  const uint64_t T = data.parent.size();
  const uint64_t E = data.entity_topic.size();
  const uint64_t Q = data.query_text.size();
  if (data.level.size() != T || data.topic_size.size() != T ||
      data.descriptions.size() != T || data.entity_category.size() != E ||
      data.posting_list.size() != Q) {
    return util::Status::InvalidArgument(
        "serving index arrays disagree on the topic, entity or query count");
  }
  // Parent ids index the children CSR built below.
  for (uint32_t t = 0; t < T; ++t) {
    if (data.parent[t] != core::kNoTopic && data.parent[t] >= T) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "serving index topic %u names parent %u of %llu", t, data.parent[t],
          static_cast<unsigned long long>(T)));
    }
  }

  // Derived structures are computed once here and persisted, so loading
  // never rebuilds them: children CSR + roots from the parent array,
  // and the two dictionary sort permutations.
  std::vector<uint64_t> child_offsets(T + 1, 0);
  std::vector<uint32_t> roots;
  for (uint32_t t = 0; t < T; ++t) {
    if (data.parent[t] == core::kNoTopic) {
      roots.push_back(t);
    } else {
      ++child_offsets[data.parent[t] + 1];
    }
  }
  for (size_t t = 1; t <= T; ++t) child_offsets[t] += child_offsets[t - 1];
  std::vector<uint32_t> child_ids(child_offsets[T], 0);
  std::vector<uint64_t> cursor(child_offsets.begin(),
                               child_offsets.begin() + T);
  for (uint32_t t = 0; t < T; ++t) {
    if (data.parent[t] != core::kNoTopic) {
      child_ids[cursor[data.parent[t]]++] = t;  // ascending t => ascending ids
    }
  }
  std::vector<std::string> query_norm;
  query_norm.reserve(Q);
  for (const std::string& text : data.query_text) {
    query_norm.push_back(text::NormalizeQuery(text));
  }
  const std::vector<uint32_t> exact_order = OrderByText(data.query_text);
  const std::vector<uint32_t> norm_order = OrderByText(query_norm);

  uint64_t hdr[kNumHeaderFields] = {0};
  hdr[kHdrIndexVersion] = data.version;
  hdr[kHdrNumTopics] = T;
  hdr[kHdrNumEntities] = E;
  hdr[kHdrNumQueries] = Q;
  hdr[kHdrNumChildren] = child_ids.size();
  hdr[kHdrNumRoots] = roots.size();
  hdr[kHdrNormalizerFingerprint] = NormalizerFingerprint();
  uint64_t num_descriptions = 0;
  uint64_t desc_arena_bytes = 0;
  for (const auto& topic_descriptions : data.descriptions) {
    num_descriptions += topic_descriptions.size();
    for (const std::string& d : topic_descriptions) {
      desc_arena_bytes += d.size();
    }
  }
  hdr[kHdrNumDescriptions] = num_descriptions;
  hdr[kHdrDescArenaBytes] = desc_arena_bytes;
  uint64_t num_postings = 0;
  for (const auto& postings : data.posting_list) {
    num_postings += postings.size();
  }
  hdr[kHdrNumPostings] = num_postings;
  for (const std::string& text : data.query_text) {
    hdr[kHdrTextArenaBytes] += text.size();
  }
  for (const std::string& norm : query_norm) {
    hdr[kHdrNormArenaBytes] += norm.size();
  }

  const Layout layout = ComputeLayout(hdr);
  hdr[kHdrFileBytes] = layout.total;

  std::string image(layout.total, '\0');
  std::memcpy(image.data(), kMagic, sizeof(kMagic));
  StoreScalar<uint32_t>(&image, 8, kServingIndexFormatVersion);
  std::memcpy(image.data() + kHeaderOffset, hdr, sizeof(hdr));
  for (size_t i = 0; i < kNumSections; ++i) {
    StoreScalar<uint64_t>(&image, kTableOffset + i * 16, layout.offsets[i]);
    StoreScalar<uint64_t>(&image, kTableOffset + i * 16 + 8, layout.bytes[i]);
  }

  auto fill = [&image, &layout](SectionId id, const void* from,
                                size_t bytes) {
    if (bytes > 0) std::memcpy(image.data() + layout.offsets[id], from, bytes);
  };
  fill(kSecParent, data.parent.data(), 4 * T);
  fill(kSecLevel, data.level.data(), 4 * T);
  fill(kSecTopicSize, data.topic_size.data(), 4 * T);
  {
    std::vector<uint64_t> desc_offsets(T + 1, 0);
    std::vector<uint64_t> desc_bounds(num_descriptions + 1, 0);
    std::string arena;
    arena.reserve(desc_arena_bytes);
    uint64_t d = 0;
    for (uint32_t t = 0; t < T; ++t) {
      desc_offsets[t] = d;
      for (const std::string& description : data.descriptions[t]) {
        desc_bounds[d] = arena.size();
        arena += description;
        ++d;
      }
    }
    desc_offsets[T] = d;
    desc_bounds[num_descriptions] = arena.size();
    fill(kSecDescOffsets, desc_offsets.data(), 8 * (T + 1));
    fill(kSecDescBounds, desc_bounds.data(), 8 * (num_descriptions + 1));
    fill(kSecDescArena, arena.data(), arena.size());
  }
  fill(kSecEntityTopic, data.entity_topic.data(), 4 * E);
  fill(kSecEntityCategory, data.entity_category.data(), 4 * E);
  auto fill_strings = [&](SectionId bounds_id, SectionId arena_id,
                          const std::vector<std::string>& strings) {
    std::vector<uint64_t> bounds(strings.size() + 1, 0);
    std::string arena;
    for (size_t i = 0; i < strings.size(); ++i) {
      bounds[i] = arena.size();
      arena += strings[i];
    }
    bounds[strings.size()] = arena.size();
    fill(bounds_id, bounds.data(), 8 * (strings.size() + 1));
    fill(arena_id, arena.data(), arena.size());
  };
  fill_strings(kSecTextBounds, kSecTextArena, data.query_text);
  fill_strings(kSecNormBounds, kSecNormArena, query_norm);
  {
    std::vector<uint64_t> post_offsets(Q + 1, 0);
    std::vector<uint32_t> post_topics(num_postings);
    std::vector<double> post_scores(num_postings);
    uint64_t p = 0;
    for (uint32_t q = 0; q < Q; ++q) {
      post_offsets[q] = p;
      for (const Posting& posting : data.posting_list[q]) {
        post_topics[p] = posting.topic;
        post_scores[p] = posting.score;
        ++p;
      }
    }
    post_offsets[Q] = p;
    fill(kSecPostOffsets, post_offsets.data(), 8 * (Q + 1));
    fill(kSecPostTopics, post_topics.data(), 4 * num_postings);
    fill(kSecPostScores, post_scores.data(), 8 * num_postings);
  }
  fill(kSecChildOffsets, child_offsets.data(), 8 * (T + 1));
  fill(kSecChildIds, child_ids.data(), 4 * child_ids.size());
  fill(kSecRoots, roots.data(), 4 * roots.size());
  fill(kSecExactOrder, exact_order.data(), 4 * Q);
  fill(kSecNormOrder, norm_order.data(), 4 * Q);

  StoreScalar<uint32_t>(
      &image, 12,
      util::Crc32(image.data() + kHeaderOffset, image.size() - kHeaderOffset));
  return image;
}

}  // namespace

util::Result<std::string> EncodeServingIndexFile(const ServingIndexData& data) {
  SHOAL_ASSIGN_OR_RETURN(std::string image, EncodeImage(data));
  // The reader's sweep over the image in place; its CRC was just
  // computed. The string's buffer comes from operator new, so the
  // 64-byte-aligned sections are at least 16-byte aligned, enough for
  // every array the sweep reads.
  ServingIndex view;
  view.base_ = reinterpret_cast<const uint8_t*>(image.data());
  view.size_ = image.size();
  SHOAL_RETURN_IF_ERROR(
      view.Bind(LoadOptions{.verify_crc = false}, "<encoded serving index>"));
  return image;
}

util::Result<ServingIndex> ServingIndexData::Build() const {
  SHOAL_ASSIGN_OR_RETURN(std::string image, EncodeImage(*this));
  // Binding sweeps the image; its CRC was just computed.
  return BindServingImage(util::MmapFile(), std::move(image),
                          LoadOptions{.verify_crc = false},
                          "<built serving index>");
}

// ---- compile --------------------------------------------------------------

util::Result<ServingIndexData> CompileServingIndex(
    const core::Taxonomy& taxonomy, const core::DescriberInput& input,
    const core::DescriberOptions& describer_options,
    const std::vector<uint32_t>* entity_categories,
    const CompileOptions& options) {
  obs::ScopedSpan span("serving_index.compile");
  if (input.query_texts == nullptr) {
    return util::Status::InvalidArgument(
        "CompileServingIndex needs query_texts to intern the dictionary");
  }
  const core::TopicRankings* rankings = taxonomy.rankings();
  if (rankings == nullptr || rankings->options != describer_options) {
    return util::Status::InvalidArgument(
        rankings == nullptr
            ? "the taxonomy carries no rankings; describe it with "
              "TopicDescriber::Describe before compiling"
            : "the taxonomy was described with other DescriberOptions; "
              "describe it with the compile's options first");
  }
  if (entity_categories != nullptr &&
      entity_categories->size() != taxonomy.num_entities()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "entity_categories has %zu entries for %zu entities",
        entity_categories->size(), taxonomy.num_entities()));
  }
  const auto& by_topic = rankings->by_topic;
  const std::vector<std::string>& query_texts = *input.query_texts;

  ServingIndexData data;
  data.version = options.version;

  const size_t num_topics = taxonomy.num_topics();
  data.parent.resize(num_topics);
  data.level.resize(num_topics);
  data.topic_size.resize(num_topics);
  data.descriptions.resize(num_topics);
  for (uint32_t t = 0; t < num_topics; ++t) {
    const core::Topic& topic = taxonomy.topic(t);
    data.parent[t] = topic.parent;
    data.level[t] = topic.level;
    data.topic_size[t] = static_cast<uint32_t>(topic.entities.size());
    data.descriptions[t] = topic.description;
  }

  data.entity_topic.resize(taxonomy.num_entities());
  data.entity_category.assign(taxonomy.num_entities(), kNoCategoryId);
  for (uint32_t e = 0; e < taxonomy.num_entities(); ++e) {
    data.entity_topic[e] = taxonomy.TopicOfEntity(e);
    if (entity_categories != nullptr) {
      data.entity_category[e] = (*entity_categories)[e];
    }
  }

  // Invert the per-topic rankings into per-query posting lists.
  std::vector<std::vector<Posting>> by_query(query_texts.size());
  for (uint32_t t = 0; t < by_topic.size(); ++t) {
    for (const core::ScoredQuery& sq : by_topic[t]) {
      if (sq.query >= by_query.size()) {
        return util::Status::OutOfRange(util::StringPrintf(
            "describer ranked query %u but only %zu query texts exist",
            sq.query, by_query.size()));
      }
      by_query[sq.query].push_back(Posting{t, sq.representativeness});
    }
  }
  for (uint32_t q = 0; q < by_query.size(); ++q) {
    auto& postings = by_query[q];
    if (postings.empty()) continue;
    std::sort(postings.begin(), postings.end(),
              [](const Posting& a, const Posting& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.topic < b.topic;
              });
    if (options.max_postings_per_query > 0 &&
        postings.size() > options.max_postings_per_query) {
      postings.resize(options.max_postings_per_query);
    }
    data.query_text.push_back(query_texts[q]);
    data.posting_list.push_back(std::move(postings));
  }
  return data;
}

// ---- file wrappers --------------------------------------------------------

util::Status WriteServingIndexFile(const std::string& path,
                                   const ServingIndexData& data) {
  obs::ScopedSpan span("serving_index.write");
  SHOAL_ASSIGN_OR_RETURN(std::string image, EncodeServingIndexFile(data));
  return util::AtomicWriteFile(path, image);
}

util::Result<ServingIndex> ReadServingIndexFile(const std::string& path,
                                                const LoadOptions& options) {
  if (options.use_mmap) {
    SHOAL_ASSIGN_OR_RETURN(util::MmapFile mapped, util::MmapFile::Open(path));
    return BindServingImage(std::move(mapped), std::string(), options, path);
  }
  SHOAL_ASSIGN_OR_RETURN(std::string bytes, util::ReadTextFile(path));
  return BindServingImage(util::MmapFile(), std::move(bytes), options, path);
}

}  // namespace shoal::serve
