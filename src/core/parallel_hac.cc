#include "core/parallel_hac.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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
//      each candidate. A rejected pair stays a candidate and caches its
//      refutation, which later rounds re-check in O(|witness|).
//   3. Maintenance. After a merge batch only the cached rows that
//      seated a retired cluster are repaired, and each new cluster's
//      row is built once.
//
// The ascending candidate walk assigns merge ids in ascending
// smaller-endpoint order, so the dendrogram is byte-identical to the
// brute-force statement of the round (DESIGN.md §8) at every k.

// A row's cached strongest mergeable neighbour and the edge similarity
// (kept so inserts can re-rank); nbr == kNoNode when the slot is empty.
// One slot per row keeps repair cheapest: a row whose slot died is
// patched from its floor or rebuilt from its adjacency, and exactness
// does not depend on how many neighbours a row caches.
struct RowSlot {
  uint32_t nbr = kNoNode;
  double similarity = 0.0;
};

// An edge as one integer that orders as Beats does: similarity bits
// (a positive double's bit pattern orders as its value), then ~u and ~v
// so the smaller id pair wins a tie; an invalid edge is 0 and never
// beats. Valid lbs are >= the threshold > 0, so their keys are > 0.
using EdgeKey = unsigned __int128;

EdgeKey KeyOf(const BestEdge& e) {
  if (!e.valid()) return 0;
  return (static_cast<EdgeKey>(std::bit_cast<uint64_t>(e.similarity)) << 64) |
         (static_cast<EdgeKey>(~e.u) << 32) | static_cast<EdgeKey>(~e.v);
}

// Cached refutation of a candidate pair: `blocker` is an edge that beats
// `pair` and was reachable through the live `witness` chain (anchor
// endpoint -> ... -> vertex whose lb the blocker was). An edge between
// two live clusters never changes, so while every witness vertex and
// both blocker endpoints stay alive, the chain's mergeable edges and the
// blocker are still there: a live, unchanged edge within k hops beats
// the pair. That needs no appeal to reducibility (which doubles do not
// keep exactly, see ClusterGraph), and re-rejecting a persistent
// spurious candidate is O(|witness|) instead of a fresh neighbourhood
// scan.
struct RejectionCache {
  BestEdge pair;
  BestEdge blocker;
  std::vector<uint32_t> witness;
};

// All cross-round state of the default path, indexed by cluster id
// (dendrogram node id). Allocated once per run.
class DeltaFrontier {
 public:
  DeltaFrontier(size_t num_ids, ClusterGraph& clusters, double threshold)
      : clusters_(clusters),
        threshold_(threshold),
        lb_(num_ids),
        slots_(num_ids),
        m1_(num_ids),
        m1_src_(num_ids, kNoNode),
        blocked_(num_ids),
        floor_(num_ids, -1.0),
        holders_(num_ids),
        bfs_stamp_(num_ids, 0) {}

  bool Alive(const BestEdge& e) const {
    return e.valid() && clusters_.IsActive(e.u) && clusters_.IsActive(e.v);
  }

  const BestEdge& lb(uint32_t v) const { return lb_[v]; }

  // Rebuilds lb(v) and the cached slot from v's current adjacency row.
  // Thread-safe across distinct vertices: only v's own state is touched.
  void RebuildRow(uint32_t v) {
    slots_[v] = RowSlot{};
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
  // the no-swap-on-tie insert seats the edge a full rebuild would.
  void AddMergeableEdge(uint32_t v, uint32_t c, double sim) {
    FoldMax(lb_[v], BestEdge{std::min(v, c), std::max(v, c), sim});
    if (InsertSlot(v, c, sim)) holders_[c].push_back(v);
  }

  // Surgical repair of v's cached row after a merge batch retired some
  // of its neighbours, in O(1) with no adjacency scan. The slot holds
  // v's lb edge (the best edge is always slot material), so a live slot
  // means nothing v's lb depends on died. A dead slot with no floor
  // (no mergeable edge was ever evicted from or refused the slot) means
  // v has no other mergeable edge: its lb is gone. When the floor is
  // set, dominated edges may survive and the caller falls back to
  // RebuildRow (returns false).
  bool PatchRowForDeaths(uint32_t v) {
    RowSlot& slot = slots_[v];
    if (slot.nbr == kNoNode || clusters_.IsActive(slot.nbr)) return true;
    slot = RowSlot{};
    if (floor_[v] >= 0.0) return false;
    lb_[v] = BestEdge{};
    return true;
  }

  // Folds v's finalized new lb into the cached closed-neighbourhood
  // maxima that can hold it — v's own and each strong neighbour's —
  // replacing a maximum only when the new lb beats it. A drop needs no
  // fold: an lb drops only when its edge dies, and M1() rescans a dead
  // maximum. A rise does: in exact arithmetic no merge raises an edge
  // above its inputs, but in doubles one can round an ulp above both
  // (ClusterGraph), and the new edge may then beat a live maximum.
  void OnLbChange(uint32_t v) {
    const BestEdge& after = lb_[v];
    const auto fold = [&](uint32_t x) {
      if (m1_src_[x] != kNoNode && Beats(after, m1_[x])) {
        m1_[x] = after;
        m1_src_[x] = v;
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

 private:
  struct BfsNode {
    uint32_t v;
    int32_t parent;  // index into bfs_nodes_, -1 for the two anchors
    size_t depth;
  };

  // Closed-neighbourhood maximum: the best lb over v and its mergeable
  // neighbours. Once rescanned, an entry bounds every member's lb and is
  // either the exact live maximum or dead: every lb rise folds in
  // (OnLbChange), and the entry is some member's lb and so incident to
  // that member, so a drop or a death of its holder kills it and the
  // next consult rescans.
  const BestEdge& M1(uint32_t v) {
    if (m1_src_[v] == kNoNode || (m1_[v].valid() && !Alive(m1_[v]))) {
      RescanM1(v);
    }
    return m1_[v];
  }

  // Exact recomputation over v's live closed neighbourhood; ties resolve
  // to the first holder in ascending row order (v itself first). The
  // running maximum is carried as a key (KeyOf), each neighbour's
  // computed once, so the scan compares integers.
  void RescanM1(uint32_t v) {
    EdgeKey best = KeyOf(lb_[v]);
    uint32_t src = v;
    for (const uint32_t y : clusters_.StrongNeighbors(v)) {
      const EdgeKey k = KeyOf(lb_[y]);
      if (k > best) {
        best = k;
        src = y;
      }
    }
    m1_[v] = lb_[src];
    m1_src_[v] = src;
  }

  // Seats (id, sim) in v's slot when it strictly beats the occupant.
  // Rows are scanned in ascending id order and new ids are the largest,
  // so "no swap on equal similarity" realises the ties-to-smaller-id
  // order. An edge that is refused the slot or evicted from it raises
  // the row's floor: it still exists in the graph, and
  // PatchRowForDeaths may only trust the slot while nothing pushed out
  // can take its place.
  bool InsertSlot(uint32_t v, uint32_t id, double sim) {
    RowSlot& slot = slots_[v];
    if (slot.nbr != kNoNode) {
      if (!(slot.similarity < sim)) {
        floor_[v] = std::max(floor_[v], sim);
        return false;
      }
      floor_[v] = std::max(floor_[v], slot.similarity);
    }
    slot = RowSlot{id, sim};
    return true;
  }

  // Reverse slot index: holders_[c] lists every vertex that has (or
  // once had) c seated in its slot — a small superset of the
  // rows a death of c can invalidate, so post-merge repair visits slot
  // holders instead of whole adjacency rows. Entries are appended on
  // seat and never removed on eviction (PatchRowForDeaths on a row that
  // no longer names the dead id is a cheap no-op); a retired id's list
  // is drained once and freed.
 public:
  void RecordHolders(uint32_t v) {
    if (slots_[v].nbr != kNoNode) holders_[slots_[v].nbr].push_back(v);
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
  std::vector<RowSlot> slots_;
  std::vector<BestEdge> m1_;
  // The member whose lb m1_ holds; kNoNode until the first RescanM1, and
  // folds skip an entry that was never scanned.
  std::vector<uint32_t> m1_src_;
  std::vector<RejectionCache> blocked_;
  // Max similarity ever pushed out of (or refused) v's slot: an upper
  // bound on every mergeable edge of v not currently holding it.
  std::vector<double> floor_;
  // See RecordHolders: who seats (or seated) each id in their slot.
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

  auto mutual = [&](uint32_t v) {
    if (!clusters.IsActive(v)) return false;
    const BestEdge& e = frontier.lb(v);
    return e.valid() && e.u == v && frontier.lb(e.v) == e;
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
      // vertex writes only its own slot), and derive the mutual-pair
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
      // Holder registration is serial: a row's slot names another
      // vertex, whose list the parallel rebuild above must not touch.
      for (uint32_t v : active) frontier.RecordHolders(v);
      candidates.clear();
      for (uint32_t v : active) {
        if (mutual(v)) candidates.push_back(v);
      }
      dirty.clear();
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
        if (mutual(v)) scratch_ids.push_back(v);
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
    // each endpoint. A rejected pair stays in the list; while its cached
    // refutation holds, each round re-rejects it in O(|witness|).
    to_merge.clear();
    merge_similarity.clear();
    for (uint32_t a : candidates) {
      const BestEdge pair = frontier.lb(a);
      ++local_stats.total_candidates;
      RejectionCache& cache = frontier.blocked(a);
      if (frontier.StillBlocked(cache, pair) ||
          frontier.FindBlocker(a, pair.v, pair, k, cache)) {
        ++local_stats.total_rejected;
        continue;
      }
      to_merge.emplace_back(pair.u, pair.v);
      merge_similarity.push_back(pair.similarity);
    }
    if (to_merge.empty()) break;

    // Every vertex whose cached lb/slot might reference a dying
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
      // Repair every survivor adjacent to a retired endpoint in O(1);
      // only the undecidable row (its slot died with a floor set) falls
      // back to an adjacency rescan.
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
      // just-repaired row takes the O(1) incremental insert — unless
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
      // A changed lb folds into the cached closed-neighbourhood maxima
      // that can hold it (deaths need no marking: an M1 sourced from a
      // dead vertex is incident to it and self-invalidates), and names
      // every vertex whose pair mutuality can have flipped — the event
      // set the next round folds into the candidate list.
      affected.clear();
      for (const auto& [a, b] : to_merge) {
        affected.push_back(a);
        affected.push_back(b);
      }
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
