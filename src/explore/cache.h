#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "assign/search_status.h"
#include "explore/pareto.h"
#include "obs/metrics.h"

namespace mhla::xplore {

/// FNV-1a 64-bit hash of `text` — the canonical cache key primitive.  The
/// explorer hashes the serialized program plus the cell's effective
/// PipelineConfig JSON (thread count zeroed: parallelism must never change
/// a key), so any change to the program, the platform models, the strategy
/// or its options yields a fresh key and a stale cache can never serve it.
std::uint64_t fnv1a64(const std::string& text);

/// One evaluated design-space cell: the cell coordinates (for human
/// inspection and report tooling), the measured cost pair, and the outcome
/// contract of the search that produced it.
struct CacheEntry {
  i64 l1_bytes = 0;
  i64 l2_bytes = 0;
  std::string strategy;
  bool with_te = false;
  double cycles = 0.0;
  double energy_nj = 0.0;

  /// Outcome of the search that produced the pair (see
  /// assign/search_status.h).  Only completed results are cacheable: a
  /// budget-truncated result depends on knobs the cache key deliberately
  /// normalizes away, and an infeasible one must never be served at all.
  /// Every insert path enforces this (see `cacheable_status`).
  assign::SearchStatus status = assign::SearchStatus::Feasible;

  friend bool operator==(const CacheEntry&, const CacheEntry&) = default;
};

/// The one cacheability rule, enforced inside the cache layer itself (not
/// just by well-behaved callers): only `Optimal` and `Feasible` results may
/// be stored.  `BudgetExhausted` results depend on the pruning/deadline
/// knobs the cache key normalizes away, and `Infeasible` assignments must
/// never be consumed — caching either would let a stale or truncated run
/// poison every later exploration that hits the key.
inline bool cacheable_status(assign::SearchStatus status) {
  return status == assign::SearchStatus::Optimal || status == assign::SearchStatus::Feasible;
}

/// Minimal store interface the explorer runs against: copy-out lookup and
/// guarded insert.  Implemented by `ResultCache`; benches wrap it to time
/// every call.  Lookup copies the entry out instead of returning a pointer
/// on purpose: a concurrent implementation may evict or move the node the
/// moment its lock drops.
class ResultStore {
 public:
  virtual ~ResultStore() = default;

  /// Copy the entry at `key` into `out`; false on a miss.  Non-const:
  /// concurrent implementations bump recency state on a hit.
  virtual bool lookup(std::uint64_t key, CacheEntry& out) = 0;

  /// Store `entry` at `key` (last write wins).  Returns false — and stores
  /// nothing — when `entry.status` is not cacheable (see
  /// `cacheable_status`).
  virtual bool insert(std::uint64_t key, CacheEntry entry) = 0;
};

/// Counters of a ResultCache, for the server's `cache_stats` protocol verb
/// and the bench harness.  Monotonic except `entries`.
struct CacheStats {
  std::size_t entries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;  ///< accepted inserts (including overwrites)
  std::uint64_t rejected = 0;    ///< inserts refused by the status guard
  std::uint64_t evictions = 0;
  std::uint64_t saves = 0;       ///< completed persistence passes
};

/// The result cache of evaluated design-space cells (see explore/explorer.h):
/// one in-memory store for the batch drivers and `mhla_serve`, persisted as
/// a JSON document.
///
///  * **One lock.**  An unordered map plus an LRU list behind one mutex; a
///    lookup holds it for one probe and one list splice.
///  * **Bound + LRU eviction.**  `max_entries` (0 = unbounded) is exact: an
///    insert that pushes the count past it evicts the least recently used
///    entry, cache-wide.
///  * **Persistence.**  Crash-safe `save` (see below); a `load` that finds a
///    malformed document salvages every intact entry line and quarantines
///    the original.  Every accepted insert marks the cache dirty and a
///    completed save marks it clean.  A clean current-version load into an
///    empty cache leaves it clean; a salvaged or stale load leaves it dirty,
///    so the next `save_if_dirty` repairs the document.  Batch drivers and
///    the server all finish with `save_if_dirty`.
class ResultCache : public ResultStore {
 public:
  using Entry = CacheEntry;

  /// What load() found on disk.  `clean`: a missing file or a well-formed
  /// current-version document.  A malformed document sets `salvaged` (the
  /// entries recovered) and `quarantine_path`; a stale-version one keeps
  /// nothing (its keys can never hit).  `entries` counts the document
  /// entries the cache accepted; `message` is the warning to print.
  struct LoadReport {
    bool clean = true;
    std::size_t entries = 0;
    std::size_t salvaged = 0;
    std::string quarantine_path;
    std::string message;
  };

  /// At most `max_entries` entries; 0 = unbounded (no eviction).
  explicit ResultCache(std::size_t max_entries = 0) : max_entries_(max_entries) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// ResultStore interface.  `lookup` copies the entry out under the lock
  /// and bumps its recency; `insert` applies the status guard, then stores
  /// (last write wins) and evicts the LRU tail past the cap.
  bool lookup(std::uint64_t key, CacheEntry& out) override;
  bool insert(std::uint64_t key, CacheEntry entry) override;

  std::size_t size() const;
  CacheStats stats() const;

  /// Expose the counters as `<prefix>.hits`, `.misses`, `.insertions`,
  /// `.rejected`, `.evictions`, `.saves` and the gauge `.entries`, read
  /// through `stats()`, so the two never drift apart.
  /// Returns the source id; `remove_source` it before destroying the cache.
  std::uint64_t register_metrics(obs::Registry& registry, std::string prefix) const;

  /// Point-in-time copy of every entry, sorted by key.
  std::vector<std::pair<std::uint64_t, Entry>> entries() const;

  /// Merge the document at `path` into this cache; the document wins on key
  /// collisions, so documents converge by loading them all into one cache
  /// (`mhla_tool --cache-merge`).  A missing file adds nothing; an existing
  /// but unreadable one throws std::runtime_error (proceeding cold would
  /// truncate the warm entries on the next save).
  LoadReport load(const std::string& path);

  /// Rewrite `path` with every entry via temp file + fsync + atomic rename,
  /// so a mid-save crash or failure leaves the previous document intact
  /// (throws std::runtime_error).  `save_if_dirty` skips a clean cache and
  /// returns whether it saved.  Saves are serialized internally.
  void save(const std::string& path) const { persist(path, false); }
  bool save_if_dirty(const std::string& path) const { return persist(path, true); }

  /// The document `save` writes (version 4, entries sorted by key).
  std::string to_json() const;

 private:
  struct Node {
    CacheEntry entry;
    std::list<std::uint64_t>::iterator lru_it;
  };

  /// The one body of save and save_if_dirty.
  bool persist(const std::string& path, bool only_if_dirty) const;

  const std::size_t max_entries_;  ///< 0 = unbounded

  mutable std::mutex mu_;  ///< guards every field below up to save_mu_
  std::unordered_map<std::uint64_t, Node> map_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  mutable CacheStats stats_;      ///< every row but `entries`
  std::uint64_t version_ = 0;     ///< bumped on every accepted mutation

  mutable std::mutex save_mu_;  ///< serializes saves; taken before mu_
  mutable std::uint64_t saved_version_ = 0;  ///< guarded by save_mu_
};

}  // namespace mhla::xplore
