#include "core/parallel_hac.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace shoal::core {

namespace {

// An edge between two clusters, as a vertex's best known edge. Ids are
// *cluster* ids, normalised to u < v.
struct BestEdge {
  uint32_t u = kNoNode;
  uint32_t v = kNoNode;
  double similarity = -1.0;

  bool valid() const { return similarity >= 0.0; }
  bool operator==(const BestEdge&) const = default;
};

// True when `x` beats `y` under the deterministic edge order (an invalid
// edge never beats, a valid edge always beats an invalid one).
bool Beats(const BestEdge& x, const BestEdge& y) {
  if (!x.valid()) return false;
  if (!y.valid()) return true;
  return EdgeBeats(x.u, x.v, x.similarity, y.u, y.v, y.similarity);
}

// Keeps `acc` as the winner under the deterministic edge order.
void FoldMax(BestEdge& acc, const BestEdge& other) {
  if (Beats(other, acc)) acc = other;
}

util::Status ValidateOptions(const ParallelHacOptions& options) {
  SHOAL_RETURN_IF_ERROR(ValidateHacOptions(options.hac));
  if (options.diffusion_iterations == 0) {
    // FindBlocker always consults the endpoints' closed neighbourhoods,
    // so k = 0 would silently run as k = 1.
    return util::Status::InvalidArgument(
        "diffusion_iterations must be >= 1");
  }
  return util::Status::OK();
}

// Per-round bookkeeping: apply the round's matching to the cluster graph
// and dendrogram, and accumulate stats.
util::Status CommitRound(
    const ParallelHacOptions& options, ClusterGraph& clusters,
    Dendrogram& dendrogram, ParallelHacStats& local_stats,
    const std::vector<std::pair<uint32_t, uint32_t>>& to_merge,
    const std::vector<double>& merge_similarity, size_t active_clusters,
    obs::ScopedSpan& round_span) {
  {
    SHOAL_TRACE_SPAN("hac.merge");
    const uint32_t first_new_id =
        static_cast<uint32_t>(dendrogram.num_nodes());
    SHOAL_RETURN_IF_ERROR(
        clusters.MergeBatch(to_merge, first_new_id, options.hac.linkage));
    for (size_t m = 0; m < to_merge.size(); ++m) {
      auto merged = dendrogram.Merge(to_merge[m].first, to_merge[m].second,
                                     merge_similarity[m]);
      if (!merged.ok()) return merged.status();
    }
  }
  local_stats.total_merges += to_merge.size();
  local_stats.merges_per_round.push_back(to_merge.size());
  ++local_stats.rounds;
  round_span.AddArg("merges", static_cast<double>(to_merge.size()));
  if (obs::MetricsRegistry::Global().enabled()) {
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.GetCounter("hac.rounds").Increment();
    metrics.GetCounter("hac.merges").Increment(to_merge.size());
    metrics.GetHistogram("hac.round.merges")
        .Record(static_cast<double>(to_merge.size()));
    metrics.GetHistogram("hac.round.active_clusters")
        .Record(static_cast<double>(active_clusters));
  }
  return util::Status::OK();
}

// ---------------------------------------------------------------------------
// Mutual-best candidates + exact k-hop check
// ---------------------------------------------------------------------------
//
// Each round finds the paper's local maximal edges without running the
// diffusion (DESIGN.md §8). Let lb(v) be v's strongest
// mergeable edge. After k diffusion iterations a vertex holds the best
// lb within k mergeable hops, and (a,b) merges iff both endpoints hold
// (a,b). No edge incident to a vertex beats its own lb, so that forces
// lb(a) == (a,b) == lb(b): every merge is a *mutually-best* pair, and a
// mutually-best pair merges iff no lb within k hops of a or b beats it.
// The round computes exactly that, serially and with no messages:
//
//   1. Candidates. The set of mutually-best pairs is kept across
//      rounds; mutuality only flips where an lb changed or an endpoint
//      died, so each round folds just the last merge batch's events
//      into it.
//   2. Verification. FindBlocker applies the exact ball-k condition to
//      each candidate. A rejected pair caches its refutation and parks
//      until a vertex the refutation depends on dies.
//   3. Maintenance. After a merge batch only the cached rows that
//      seated a retired cluster are repaired, and each new cluster's
//      row is built once.
//
// The ascending candidate walk assigns merge ids in ascending
// smaller-endpoint order, so the dendrogram is byte-identical to the
// brute-force statement of the round (DESIGN.md §8) at every k.

// A cached strongest-neighbour slot of a row: the neighbour and the edge
// similarity (kept so rebuilds can re-rank).
struct RowSlot {
  uint32_t nbr = kNoNode;
  double similarity = 0.0;
};

// How many of its strongest mergeable neighbours each row caches. One
// keeps repair cheapest; a row whose cached slots all died is rebuilt
// from its adjacency, and exactness does not depend on the count.
constexpr size_t kRowSlots = 1;

// Cached refutation of a candidate pair: `blocker` is an edge that beats
// `pair` and was reachable through the live `witness` chain (anchor
// endpoint -> ... -> vertex whose lb the blocker was). Mergeable edges
// between live clusters are immutable and a linkage update never raises
// a similarity above the max of its inputs, so while every witness
// vertex and both blocker endpoints stay alive the refutation remains
// valid — re-rejecting a persistent spurious candidate is O(|witness|)
// instead of a fresh neighbourhood scan.
struct RejectionCache {
  BestEdge pair;
  BestEdge blocker;
  std::vector<uint32_t> witness;
};

// All cross-round state of the default path, indexed by cluster id
// (dendrogram node id). Allocated once per run.
class DeltaFrontier {
 public:
  // Trust states of the cached closed-neighbourhood top-2 (see M1()).
  enum : uint8_t { kM1Full = 0, kM1Stale = 1, kM1Top = 2 };

  DeltaFrontier(size_t num_ids, ClusterGraph& clusters, double threshold)
      : clusters_(clusters),
        threshold_(threshold),
        lb_(num_ids),
        slots_(num_ids),
        m1_(num_ids),
        m1_src_(num_ids, kNoNode),
        m2_(num_ids),
        m2_src_(num_ids, kNoNode),
        m1_stale_(num_ids, kM1Stale),
        blocked_(num_ids),
        parked_(num_ids, 0),
        watch_(num_ids),
        floor_(num_ids, -1.0),
        holders_(num_ids),
        bfs_stamp_(num_ids, 0) {}

  bool Alive(const BestEdge& e) const {
    return e.valid() && clusters_.IsActive(e.u) && clusters_.IsActive(e.v);
  }

  // True when w is a mergeable neighbour of x (a member of the M1
  // closed neighbourhood besides x itself). O(log deg) on the id-sorted
  // adjacency row.
  bool IsMergeableMember(uint32_t x, uint32_t w) const {
    const ClusterEdge* e = clusters_.FindEdge(x, w);
    return e != nullptr && e->similarity >= threshold_;
  }

  const BestEdge& lb(uint32_t v) const { return lb_[v]; }

  // Rebuilds lb(v) and the cached slots from v's current adjacency row.
  // Thread-safe across distinct vertices: only v's own state is touched.
  void RebuildRow(uint32_t v) {
    slots_[v].clear();
    floor_[v] = -1.0;
    BestEdge lb;
    // Rows keep sub-threshold edges (the linkage rule needs them), but
    // only the mergeable ones matter here: the maintained per-cluster
    // count lets the scan stop once it has seen them all, which skips
    // the long weak tails that accumulate as linkage decays.
    size_t remaining = clusters_.MergeableEdgeCount(v);
    for (const ClusterEdge& e : clusters_.Neighbors(v)) {
      if (remaining == 0) break;
      if (e.similarity < threshold_) continue;
      --remaining;
      FoldMax(lb, BestEdge{std::min(v, e.id), std::max(v, e.id),
                           e.similarity});
      InsertSlot(v, e.id, e.similarity);
    }
    lb_[v] = lb;
  }

  // Incremental registration of a newly created mergeable edge (v, c).
  // Exact only when v's cached row is otherwise current — i.e. the
  // caller already repaired the batch's deaths via PatchRowForDeaths
  // (or RebuildRow). New ids are allocated above every existing id, so
  // the stable insertion keeps the (similarity desc, id asc) slot order
  // a full rebuild would produce.
  void AddMergeableEdge(uint32_t v, uint32_t c, double sim) {
    FoldMax(lb_[v], BestEdge{std::min(v, c), std::max(v, c), sim});
    if (InsertSlot(v, c, sim)) holders_[c].push_back(v);
  }

  // Surgical repair of v's cached row after a merge batch retired some
  // of its neighbours, in O(slots) with no adjacency scan. Every mergeable
  // edge of v outside the slots has similarity <= floor_[v] (the
  // strongest edge ever evicted from or refused a slot), and merges
  // never touch similarities between surviving clusters; so when the
  // best surviving slot strictly beats the floor it is the exact row
  // maximum, and the shrunken slot list remains a valid — merely
  // smaller — top-k (exactness never depends on the slot count). A dead lb
  // always names a dead slot (the best edge is always slot material),
  // so the no-deaths case needs no lb repair. When the floor is in
  // reach — the survivors no longer provably dominate the dominated
  // remainder — returns false and the caller falls back to RebuildRow.
  bool PatchRowForDeaths(uint32_t v) {
    auto& slots = slots_[v];
    const size_t before = slots.size();
    size_t w = 0;
    for (size_t i = 0; i < before; ++i) {
      if (clusters_.IsActive(slots[i].nbr)) {
        if (w != i) slots[w] = slots[i];
        ++w;
      }
    }
    if (w == before) return true;  // nothing died; lb is a slot, so alive
    slots.resize(w);
    if (w == 0) {
      if (floor_[v] >= 0.0) return false;  // dominated edges may survive
      lb_[v] = BestEdge{};
      return true;
    }
    // Slots are (similarity desc, pair asc): the front is the Beats-max
    // of the survivors. Strict: an outside edge tying the floor could
    // still win on pair order.
    if (slots[0].similarity <= floor_[v]) return false;
    lb_[v] = BestEdge{std::min(v, slots[0].nbr), std::max(v, slots[0].nbr),
                      slots[0].similarity};
    return true;
  }

  // Folds a finalized lb change of v into the cached closed-
  // neighbourhood top-2 entries that could have derived from it, in
  // place. Each case keeps the invariants stated at M1(): the top entry
  // stays the exact live maximum, and the runner-up stays exact
  // whenever the state says it is; any transition whose ordering cannot
  // be proven from the cached values degrades conservatively (to kM1Top
  // when only the runner-up is lost, to kM1Stale when the top itself
  // is). Exact as long as every lb mutation of a round flows through
  // here in record order (later folds for the same vertex carry its
  // newer lb).
  void OnLbChange(uint32_t v) {
    const BestEdge after = lb_[v];
    const auto fold = [&](uint32_t x) {
      uint8_t& st = m1_stale_[x];
      if (st == kM1Stale) return;  // already due a full rescan
      if (m1_src_[x] == v) {
        if (m1_[x] == after) return;
        if (!Beats(m1_[x], after)) {
          // The max rose — always onto a *different* edge. The old
          // edge's other endpoint w is pinned while that edge lives:
          // lb(w) >= the edge it is incident to, and lb(w) <= the old
          // max when w is a member — so if w is a live member, lb(w)
          // *equals* the old max and (old max, w) is the exact new
          // runner-up. Otherwise no member holds the old edge and the
          // existing runner-up is still exact. Either way the entry
          // stays full.
          const BestEdge old = m1_[x];
          m1_[x] = after;
          if (old.valid()) {
            const uint32_t w = (old.u == v) ? old.v : old.u;
            if (w == x || (clusters_.IsActive(w) && IsMergeableMember(x, w))) {
              m2_[x] = old;
              m2_src_[x] = w;
              st = kM1Full;
            }
          }
          return;
        }
        // The argmax dropped, which (similarities being immutable) means
        // its old lb edge died: no live member still holds that edge.
        // The runner-up — when exact and alive — bounds every surviving
        // member, so it either stays behind the new value or takes over
        // the top; v's new value is not a proven runner-up in the latter
        // case, so it is dropped rather than kept as an unordered hint.
        if (st == kM1Full && (!m2_[x].valid() || Alive(m2_[x]))) {
          if (Beats(m2_[x], after)) {
            m1_[x] = m2_[x];
            m1_src_[x] = m2_src_[x];
            m2_[x] = BestEdge{};
            m2_src_[x] = kNoNode;
            st = kM1Top;
          } else if (m2_[x] == after) {
            // Same edge seen through its other endpoint: it cannot be
            // its own runner-up.
            m1_[x] = after;
            m1_src_[x] = v;
            m2_[x] = BestEdge{};
            m2_src_[x] = kNoNode;
            st = kM1Top;
          } else {
            m1_[x] = after;  // still >= runner-up >= every other member
          }
        } else {
          st = kM1Stale;  // no trustworthy runner-up to compare against
        }
        return;
      }
      if (st == kM1Full && m2_src_[x] == v) {
        if (m2_[x] == after) return;
        if (Beats(after, m1_[x])) {  // runner-up overtook the top
          m2_[x] = m1_[x];
          m2_src_[x] = m1_src_[x];
          m1_[x] = after;
          m1_src_[x] = v;
          if (!m2_[x].valid() || !Alive(m2_[x])) {
            m2_[x] = BestEdge{};  // a dead edge cannot vouch for the rest
            m2_src_[x] = kNoNode;
            st = kM1Top;
          }
        } else if (!Beats(m2_[x], after)) {
          m2_[x] = after;  // rose within the gap: still >= the others
        } else {
          m2_[x] = BestEdge{};  // dropped below its old self: rank unknown
          m2_src_[x] = kNoNode;
          st = kM1Top;
        }
        return;
      }
      // v holds neither entry.
      if (Beats(after, m1_[x])) {
        // The displaced top bounds every member, so while it is alive it
        // is the exact runner-up (a strict beat is a different edge) —
        // this also repairs kM1Top entries back to full. A dead
        // displaced top says nothing about the survivors: keep whatever
        // runner-up knowledge the entry already had.
        if (!m1_[x].valid() || Alive(m1_[x])) {
          m2_[x] = m1_[x];
          m2_src_[x] = m1_[x].valid() ? m1_src_[x] : kNoNode;
          st = kM1Full;
        }
        m1_[x] = after;
        m1_src_[x] = v;
      } else if (st == kM1Full && !(after == m1_[x]) &&
                 Beats(after, m2_[x])) {
        m2_[x] = after;
        m2_src_[x] = v;
      }
    };
    fold(v);
    for (const uint32_t y : clusters_.StrongNeighbors(v)) fold(y);
  }

  // Exact check of the paper's local-maximality condition for candidate
  // pair (a, b) with similarity edge `edge`: is there any mergeable edge
  // incident to the k-hop mergeable neighbourhood of {a, b} that beats
  // it? Serial by design — candidates are few and the M1 cache keeps
  // each check to O(deg) lookups — and deterministic: BFS order follows
  // the id-sorted adjacency rows. On a hit, fills `cache` so later
  // rounds can re-reject the same pair in O(|witness|).
  bool FindBlocker(uint32_t a, uint32_t b, const BestEdge& edge, size_t k,
                   RejectionCache& cache) {
    // max lb over ball_k({a,b}) == max M1 over ball_{k-1}({a,b}): BFS to
    // depth k-1 and consult the cached closed-neighbourhood maximum at
    // each visited vertex.
    ++bfs_round_;
    bfs_nodes_.clear();
    bfs_nodes_.push_back({a, -1, 0});
    bfs_stamp_[a] = bfs_round_;
    if (b != a && bfs_stamp_[b] != bfs_round_) {
      bfs_nodes_.push_back({b, -1, 0});
      bfs_stamp_[b] = bfs_round_;
    }
    for (size_t head = 0; head < bfs_nodes_.size(); ++head) {
      const BfsNode node = bfs_nodes_[head];
      const BestEdge& m1 = M1(node.v);
      if (Beats(m1, edge)) {
        cache.pair = edge;
        cache.blocker = m1;
        cache.witness.clear();
        cache.witness.push_back(m1_src_[node.v]);
        for (int32_t at = static_cast<int32_t>(head); at >= 0;
             at = bfs_nodes_[at].parent) {
          cache.witness.push_back(bfs_nodes_[at].v);
        }
        return true;
      }
      if (node.depth + 1 >= k) continue;
      for (const uint32_t y : clusters_.StrongNeighbors(node.v)) {
        if (bfs_stamp_[y] == bfs_round_) continue;
        bfs_stamp_[y] = bfs_round_;
        bfs_nodes_.push_back({y, static_cast<int32_t>(head), node.depth + 1});
      }
    }
    return false;
  }

  // True while a cached refutation of `pair` is still conclusive.
  bool StillBlocked(const RejectionCache& cache, const BestEdge& pair) const {
    if (!(cache.pair == pair) || !Alive(cache.blocker)) return false;
    for (uint32_t w : cache.witness) {
      if (!clusters_.IsActive(w)) return false;
    }
    return true;
  }

  RejectionCache& blocked(uint32_t v) { return blocked_[v]; }

  // --- parking -----------------------------------------------------------
  // A pair whose rejection cache is alive stays blocked until one of the
  // watched vertices (witness chain or blocker endpoint) dies — edges
  // between live clusters are immutable, so nothing else can re-enable
  // it. Parking takes such pairs out of the per-round work list
  // entirely; the watch lists wake them on exactly the deaths that can
  // invalidate the refutation. A parked pair can never merge away in
  // the meantime: its endpoints' only mutual pair is the parked one.

  // True while v's parked state refers to its current pair, i.e. the
  // pair must stay out of the evaluation list.
  bool ParkedFor(uint32_t v) const {
    return parked_[v] && blocked_[v].pair == lb_[v];
  }

  // Parks the pair keyed by its smaller endpoint `a`. Watchers are
  // registered only for a freshly computed cache; a still-valid old
  // cache re-parks without re-registering (its entries are still in the
  // watch lists — they are cleared only when a watched vertex dies).
  void Park(uint32_t a, bool register_watchers) {
    parked_[a] = 1;
    if (!register_watchers) return;
    const RejectionCache& cache = blocked_[a];
    for (uint32_t w : cache.witness) watch_[w].push_back(a);
    watch_[cache.blocker.u].push_back(a);
    watch_[cache.blocker.v].push_back(a);
  }

  // Called for every cluster retired by a merge batch: wakes the parked
  // pairs watching it (their refutation may no longer hold) and appends
  // their keys to `out` for re-evaluation. Stale entries — pairs that
  // were already unparked or re-parked under a different cache — cost
  // one spurious re-check at most.
  void WakeWatchers(uint32_t dead, std::vector<uint32_t>& out) {
    for (uint32_t a : watch_[dead]) {
      if (parked_[a]) {
        parked_[a] = 0;
        out.push_back(a);
      }
    }
    watch_[dead].clear();
    watch_[dead].shrink_to_fit();
  }

 private:
  struct BfsNode {
    uint32_t v;
    int32_t parent;  // index into bfs_nodes_, -1 for the two anchors
    size_t depth;
  };

  // Closed-neighbourhood maximum: max lb over v and its mergeable
  // neighbours, with the exact runner-up alongside. States:
  //   kM1Full  — m1_ is the exact live maximum and m2_ the exact
  //              runner-up over the remaining members (invalid when
  //              there is none);
  //   kM1Top   — m1_ is still the exact maximum but the runner-up has
  //              been consumed or invalidated;
  //   kM1Stale — nothing is trusted; the next consult rescans.
  // Every cached value is some member's lb and therefore incident to
  // that member, so a member's death self-invalidates the entry it
  // sourced. That was by far the dominant rescan trigger (merges kill
  // two vertices whose lbs seed most of their neighbourhoods' maxima);
  // keeping the runner-up turns the common case into an O(1) promotion:
  // an exact runner-up that is still alive bounds every other live
  // member and is current (all lb changes fold eagerly), so it *is* the
  // new maximum.
  const BestEdge& M1(uint32_t v) {
    for (;;) {
      if (m1_stale_[v] == kM1Stale) {
        RescanM1(v);
        return m1_[v];
      }
      if (!m1_[v].valid() || Alive(m1_[v])) return m1_[v];
      if (m1_stale_[v] == kM1Full && m2_[v].valid() && Alive(m2_[v])) {
        m1_[v] = m2_[v];
        m1_src_[v] = m2_src_[v];
        m2_[v] = BestEdge{};
        m2_src_[v] = kNoNode;
        m1_stale_[v] = kM1Top;
        return m1_[v];
      }
      m1_stale_[v] = kM1Stale;
    }
  }

  // Exact top-2 recomputation over v's live closed neighbourhood, with
  // the runner-up restricted to members whose lb is a *different edge*
  // than the maximum's. Two members often share one edge — its two
  // endpoints — and merges retire exactly such pairs, so a value-ranked
  // runner-up would usually die together with the maximum; the
  // edge-disjoint runner-up is the one that survives the death of the
  // top edge and makes the O(1) promotion in M1() fire. Ties resolve to
  // the first holder in ascending row order (v itself first), matching
  // what the incremental folds produce.
  void RescanM1(uint32_t v) {
    BestEdge e1 = lb_[v];
    BestEdge e2;
    uint32_t s1 = v;
    uint32_t s2 = kNoNode;
    for (const uint32_t y : clusters_.StrongNeighbors(v)) {
      const BestEdge& cand = lb_[y];
      if (Beats(cand, e1)) {
        // A strict beat is a different edge, so the displaced maximum
        // is runner-up eligible — and beats the old runner-up.
        e2 = e1;
        s2 = s1;
        e1 = cand;
        s1 = y;
      } else if (!(cand == e1) && Beats(cand, e2)) {
        e2 = cand;
        s2 = y;
      }
    }
    m1_[v] = e1;
    m1_src_[v] = s1;
    m2_[v] = e2;
    m2_src_[v] = e2.valid() ? s2 : kNoNode;
    m1_stale_[v] = kM1Full;
  }

  // Keeps v's slots sorted by (similarity desc, id asc) and capped at
  // kRowSlots. Rows are scanned in ascending id order, so the stable "no
  // swap on equal similarity" rule realises the ties-to-smaller-id
  // order. An edge that is refused a slot or evicted by the cap raises
  // the row's floor: it still exists in the graph, and PatchRowForDeaths
  // may only trust the surviving slots while they strictly beat
  // everything pushed out.
  bool InsertSlot(uint32_t v, uint32_t id, double sim) {
    auto& slots = slots_[v];
    size_t pos = slots.size();
    while (pos > 0 && slots[pos - 1].similarity < sim) --pos;
    if (slots.size() == kRowSlots) {
      if (pos == slots.size()) {
        floor_[v] = std::max(floor_[v], sim);
        return false;
      }
      floor_[v] = std::max(floor_[v], slots.back().similarity);
      slots.pop_back();
    }
    slots.insert(slots.begin() + pos, RowSlot{id, sim});
    return true;
  }

  // Reverse slot index: holders_[c] lists every vertex that has (or
  // once had) c seated in its slots — a small superset of the
  // rows a death of c can invalidate, so post-merge repair visits slot
  // holders instead of whole adjacency rows. Entries are appended on
  // seat and never removed on eviction (PatchRowForDeaths on a row that
  // no longer names the dead id is a cheap no-op); a retired id's list
  // is drained once and freed.
 public:
  void RecordHolders(uint32_t v) {
    for (const RowSlot& s : slots_[v]) holders_[s.nbr].push_back(v);
  }
  void DrainHolders(uint32_t dead, std::vector<uint32_t>& out) {
    auto& h = holders_[dead];
    out.insert(out.end(), h.begin(), h.end());
    std::vector<uint32_t>().swap(h);
  }

 private:
  ClusterGraph& clusters_;
  const double threshold_;
  std::vector<BestEdge> lb_;
  std::vector<std::vector<RowSlot>> slots_;
  std::vector<BestEdge> m1_;
  std::vector<uint32_t> m1_src_;
  std::vector<BestEdge> m2_;
  std::vector<uint32_t> m2_src_;
  std::vector<uint8_t> m1_stale_;
  std::vector<RejectionCache> blocked_;
  std::vector<uint8_t> parked_;
  std::vector<std::vector<uint32_t>> watch_;
  // Max similarity ever pushed out of (or refused) v's slots: an upper
  // bound on every mergeable edge of v not currently holding a slot.
  std::vector<double> floor_;
  // See RecordHolders: who seats (or seated) each id in their slots.
  std::vector<std::vector<uint32_t>> holders_;
  std::vector<uint32_t> bfs_stamp_;
  uint32_t bfs_round_ = 0;
  std::vector<BfsNode> bfs_nodes_;
};

util::Status RunRounds(const ParallelHacOptions& options,
                       ClusterGraph& clusters, Dendrogram& dendrogram,
                       ParallelHacStats& local_stats) {
  const double threshold = options.hac.threshold;
  const size_t k = options.diffusion_iterations;
  util::ThreadPool pool(std::max<size_t>(1, options.num_threads));

  const size_t num_leaves = dendrogram.num_leaves();
  const size_t num_ids = num_leaves > 0 ? 2 * num_leaves - 1 : 0;
  DeltaFrontier frontier(num_ids, clusters, threshold);
  bool initialized = false;

  std::vector<std::pair<uint32_t, uint32_t>> to_merge;
  std::vector<double> merge_similarity;
  std::vector<uint32_t> dirty;
  struct LbChange {
    uint32_t v;
    BestEdge before;
    BestEdge after;
  };
  std::vector<LbChange> lb_changes;
  // Ascending smaller endpoints of the current mutually-best pairs, the
  // only pairs that can merge (see the section comment). Maintaining the
  // set incrementally (mutuality only flips where an lb changed or an
  // endpoint died) replaces a per-round O(frontier) scan with an
  // O(changes) update, so round cost tracks merge activity instead of
  // frontier size.
  std::vector<uint32_t> candidates;
  std::vector<uint32_t> affected;
  std::vector<uint32_t> rebuild_cands;
  std::vector<uint32_t> scratch_ids;

  std::vector<uint32_t> parked_events;

  auto mutual = [&](uint32_t v) {
    if (!clusters.IsActive(v)) return false;
    const BestEdge& e = frontier.lb(v);
    return e.valid() && e.u == v && frontier.lb(e.v) == e;
  };
  // Belongs in the per-round evaluation list: mutual and not parked
  // behind a still-valid refutation.
  auto evaluable = [&](uint32_t v) {
    return mutual(v) && !frontier.ParkedFor(v);
  };
  const auto push_endpoints = [](std::vector<uint32_t>& out,
                                 const BestEdge& e) {
    if (e.valid()) {
      out.push_back(e.u);
      out.push_back(e.v);
    }
  };

  for (size_t round = 0;; ++round) {
    SHOAL_RETURN_IF_ERROR(util::FaultInjector::Global().OnHacRound(round));
    obs::ScopedSpan round_span("hac.round");
    round_span.AddArg("round", static_cast<double>(round));
    if (clusters.num_active() < 2) break;
    round_span.AddArg("active_clusters",
                      static_cast<double>(clusters.num_active()));

    if (!initialized) {
      // First round: build every frontier row once, in parallel (each
      // vertex writes only its own slots), and derive the mutual-pair
      // set with one full scan.
      SHOAL_TRACE_SPAN("hac.delta_init");
      std::vector<uint32_t> active = clusters.MergeableClusters();
      if (active.size() < 2) break;
      pool.ParallelForChunked(
          active.size(), [&](size_t begin, size_t end, size_t /*c*/) {
            for (size_t i = begin; i < end; ++i) {
              frontier.RebuildRow(active[i]);
            }
          });
      // Holder registration is serial: a row's slots name other vertices'
      // lists, which the parallel rebuild above must not touch.
      for (uint32_t v : active) frontier.RecordHolders(v);
      candidates.clear();
      for (uint32_t v : active) {
        if (evaluable(v)) candidates.push_back(v);
      }
      dirty.clear();
      parked_events.clear();
      initialized = true;
    } else {
      // Fold last round's lb flips and merge deaths into the mutual
      // set: a single merged walk over the (sorted) event vertices and
      // the previous set, re-testing mutuality only at event vertices.
      std::sort(affected.begin(), affected.end());
      affected.erase(std::unique(affected.begin(), affected.end()),
                     affected.end());
      scratch_ids.clear();
      size_t ci = 0;
      for (uint32_t v : affected) {
        while (ci < candidates.size() && candidates[ci] < v) {
          scratch_ids.push_back(candidates[ci++]);
        }
        if (ci < candidates.size() && candidates[ci] == v) ++ci;
        if (evaluable(v)) scratch_ids.push_back(v);
      }
      while (ci < candidates.size()) {
        scratch_ids.push_back(candidates[ci++]);
      }
      candidates.swap(scratch_ids);
    }
    round_span.AddArg("candidate_pairs",
                      static_cast<double>(candidates.size()));

    // --- candidate evaluation + exact verification ------------------------
    // A mutually-best pair merges iff no mergeable edge within k hops of
    // either endpoint beats it. The ball-k check (or a still-live cached
    // refutation) decides that exactly — it is the serial equivalent of
    // the diffusion veto, which delivers precisely the ball-k maximum to
    // each endpoint. Every rejected pair parks behind its refutation:
    // nothing can re-enable it until a watched vertex dies, so it costs
    // nothing per round while it waits.
    to_merge.clear();
    merge_similarity.clear();
    for (uint32_t a : candidates) {
      const BestEdge pair = frontier.lb(a);
      ++local_stats.total_candidates;
      RejectionCache& cache = frontier.blocked(a);
      if (frontier.StillBlocked(cache, pair)) {
        ++local_stats.total_rejected;
        // The cached refutation is still live, so the pair stays blocked
        // until one of its witnesses dies; the watchers registered when
        // the cache was filled are still in place.
        frontier.Park(a, /*register_watchers=*/false);
        parked_events.push_back(a);
        continue;
      }
      if (frontier.FindBlocker(a, pair.v, pair, k, cache)) {
        ++local_stats.total_rejected;
        // Blocked pairs cannot change state while blocker and witness
        // chain stay alive (edges between live clusters are immutable,
        // linkage never raises a similarity): park the pair and skip it
        // until a watched vertex is retired by a merge.
        frontier.Park(a, /*register_watchers=*/true);
        parked_events.push_back(a);
        continue;
      }
      to_merge.emplace_back(pair.u, pair.v);
      merge_similarity.push_back(pair.similarity);
    }
    if (to_merge.empty()) break;

    // Every vertex whose cached lb/slots might reference a dying
    // cluster seated that cluster in a slot at some point, so the
    // reverse slot index names them all directly — no adjacency-row
    // scans of the retiring endpoints.
    rebuild_cands.clear();
    for (const auto& [a, b] : to_merge) {
      frontier.DrainHolders(a, rebuild_cands);
      frontier.DrainHolders(b, rebuild_cands);
    }
    std::sort(rebuild_cands.begin(), rebuild_cands.end());
    rebuild_cands.erase(
        std::unique(rebuild_cands.begin(), rebuild_cands.end()),
        rebuild_cands.end());

    const size_t active_before = clusters.num_active();
    const uint32_t first_new_id = static_cast<uint32_t>(dendrogram.num_nodes());
    SHOAL_RETURN_IF_ERROR(CommitRound(options, clusters, dendrogram,
                                      local_stats, to_merge, merge_similarity,
                                      active_before, round_span));

    // --- incremental maintenance: touch only what the batch changed -------
    // Serial: the touched set is O(merges * mergeable degree), tiny next
    // to a frontier pass.
    {
      SHOAL_TRACE_SPAN("hac.delta_update");
      const uint32_t end_id = static_cast<uint32_t>(dendrogram.num_nodes());
      lb_changes.clear();
      // Repair every survivor adjacent to a retired endpoint in
      // O(kRowSlots); only the rare undecidable row (its cached slots
      // wiped out whole) falls back to an adjacency rescan.
      dirty.clear();
      for (uint32_t v : rebuild_cands) {
        if (!clusters.IsActive(v)) continue;
        const BestEdge before = frontier.lb(v);
        if (frontier.PatchRowForDeaths(v)) {
          if (!(frontier.lb(v) == before)) {
            lb_changes.push_back({v, before, frontier.lb(v)});
          }
        } else {
          dirty.push_back(v);
        }
      }
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
      for (uint32_t v : dirty) {
        const BestEdge before = frontier.lb(v);
        frontier.RebuildRow(v);
        frontier.RecordHolders(v);
        if (!(frontier.lb(v) == before)) {
          lb_changes.push_back({v, before, frontier.lb(v)});
        }
      }
      // One pass over each new cluster's mergeable edges builds its own
      // row (the same fold + stable insert a rebuild would run) and
      // hands the reverse edge to each surviving old neighbour, whose
      // just-repaired row takes the O(kRowSlots) incremental insert — unless
      // it fell back to a full rescan above, which already saw the edge.
      // An edge between two new clusters is registered once from each
      // side as their rows are built.
      for (uint32_t c = first_new_id; c < end_id; ++c) {
        size_t remaining = clusters.MergeableEdgeCount(c);
        for (const ClusterEdge& e : clusters.Neighbors(c)) {
          if (remaining == 0) break;
          if (e.similarity < threshold) continue;
          --remaining;
          frontier.AddMergeableEdge(c, e.id, e.similarity);
          if (e.id >= first_new_id) continue;
          if (std::binary_search(dirty.begin(), dirty.end(), e.id)) continue;
          const BestEdge before = frontier.lb(e.id);
          frontier.AddMergeableEdge(e.id, c, e.similarity);
          if (!(frontier.lb(e.id) == before)) {
            lb_changes.push_back({e.id, before, frontier.lb(e.id)});
          }
        }
        if (frontier.lb(c).valid()) {
          lb_changes.push_back({c, BestEdge{}, frontier.lb(c)});
        }
      }
      // A changed lb invalidates the cached closed-neighbourhood maxima
      // that may have folded it (deaths need no marking: an M1 sourced
      // from a dead vertex is incident to it and self-invalidates), and
      // names every vertex whose pair mutuality can have flipped — the
      // event set the next round folds into the candidate list.
      affected.clear();
      for (const auto& [a, b] : to_merge) {
        affected.push_back(a);
        affected.push_back(b);
        // A retired watched vertex voids its parked refutations; the
        // woken pairs rejoin the affected walk and are re-verified.
        frontier.WakeWatchers(a, affected);
        frontier.WakeWatchers(b, affected);
      }
      // Freshly parked pairs must pass through the next round's walk so
      // the merged candidate scan drops them (evaluable() is false while
      // parked). Losing this on the zero-merge break is fine — the run
      // has ended.
      affected.insert(affected.end(), parked_events.begin(),
                      parked_events.end());
      parked_events.clear();
      for (const LbChange& ch : lb_changes) {
        frontier.OnLbChange(ch.v);
        affected.push_back(ch.v);
        push_endpoints(affected, ch.before);
        push_endpoints(affected, ch.after);
      }
    }
  }

  if (obs::MetricsRegistry::Global().enabled()) {
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.GetCounter("hac.runs").Increment();
    obs::RecordThreadPoolStats("hac.pool", pool.GetStats());
  }
  return util::Status::OK();
}

}  // namespace

util::Result<Dendrogram> ParallelHac(const graph::WeightedGraph& graph,
                                     const ParallelHacOptions& options,
                                     ParallelHacStats* stats) {
  SHOAL_RETURN_IF_ERROR(ValidateOptions(options));
  Dendrogram dendrogram(graph.num_vertices());
  ClusterGraph clusters(graph, /*track_threshold=*/options.hac.threshold);
  ParallelHacStats local_stats;
  SHOAL_RETURN_IF_ERROR(
      RunRounds(options, clusters, dendrogram, local_stats));
  if (stats != nullptr) *stats = local_stats;
  return dendrogram;
}

}  // namespace shoal::core
