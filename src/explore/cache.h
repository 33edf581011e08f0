#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "assign/search_status.h"
#include "explore/pareto.h"

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
/// guarded insert.  Implemented by the single-threaded `ResultCache` (batch
/// drivers, file round-trip) and the sharded `ConcurrentResultCache`
/// (explore/concurrent_cache.h, the server's process-wide cache).  Lookup
/// copies the entry out instead of returning a pointer on purpose: a
/// concurrent implementation may evict or move the node the moment its
/// shard lock drops.
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

/// Persistent store of evaluated design-space cells (see explore/explorer.h),
/// JSON on disk.  One entry per canonical key carries the cell coordinates
/// (for human inspection and report tooling) and the measured cost pair,
/// emitted with max_digits10 so a reloaded entry reproduces the evaluated
/// doubles bit for bit — a warm re-exploration returns the identical
/// frontier with zero pipeline runs.
///
/// Single-writer by design: `load` + `save` rewrite the whole document.
/// Concurrent explorations over one file should shard to distinct paths and
/// merge afterwards (`merge_from`, or `mhla_tool --cache-merge`); a single
/// process that wants concurrent readers/writers over one in-memory cache
/// uses `ConcurrentResultCache` instead.
///
/// Crash safety: `save` stages the document in a temp file, flushes it to
/// stable storage (fsync) and atomically renames it over the target, so a
/// crash at any point leaves either the complete old document or the
/// complete new one — never a truncated mix.  `load` in turn never throws
/// the warm results away on a malformed document: it salvages every
/// well-formed entry line, quarantines the damaged original next to the
/// cache (".quarantine") and reports what happened (see LoadReport).
class ResultCache : public ResultStore {
 public:
  using Entry = CacheEntry;

  /// What load() found on disk.  `clean` is true for a missing file or a
  /// well-formed current-version document.  On a malformed document it is
  /// false, `salvaged` counts the entries recovered from the wreckage, and
  /// `quarantine_path` names where the damaged original was preserved.  On a
  /// well-formed document of an older format version it is false and
  /// nothing is kept (its keys can never hit).  `message` is the
  /// human-readable warning (also printed to stderr by the one-argument
  /// overload).
  struct LoadReport {
    bool clean = true;
    std::size_t entries = 0;
    std::size_t salvaged = 0;
    std::string quarantine_path;
    std::string message;
  };

  /// Load from `path`.  A missing file is an empty cache; an existing but
  /// unreadable file throws std::runtime_error (proceeding cold would
  /// truncate the warm entries on the next save); a malformed document is
  /// salvaged entry by entry instead of throwing — the damaged original is
  /// quarantined — and a stale-version document loads empty; either way a
  /// warning goes to stderr (one-argument overload) or into `report`.
  static ResultCache load(const std::string& path);
  static ResultCache load(const std::string& path, LoadReport& report);

  /// Rewrite `path` with every entry (sorted by key — byte-stable output)
  /// via temp file + fsync + atomic rename: a previously persisted document
  /// survives any mid-save crash or failure intact.  Throws
  /// std::runtime_error when the file cannot be written (the temp file is
  /// cleaned up and the target left untouched).
  void save(const std::string& path) const;

  /// JSON round-trip used by load/save; exposed for tests and tooling.
  /// A well-formed document of an older format version throws
  /// std::invalid_argument naming its version ("stale cache version ...").
  static ResultCache from_json(const std::string& text);
  std::string to_json(int indent = 0) const;

  const Entry* find(std::uint64_t key) const;

  /// ResultStore interface (copy-out lookup; status-guarded insert).
  bool lookup(std::uint64_t key, CacheEntry& out) override;
  bool insert(std::uint64_t key, CacheEntry entry) override;

  /// Adopt every cacheable entry of `other` (other wins on key collisions).
  void merge_from(const ResultCache& other);

  std::size_t size() const { return entries_.size(); }
  const std::map<std::uint64_t, Entry>& entries() const { return entries_; }

 private:
  std::map<std::uint64_t, Entry> entries_;
};

}  // namespace mhla::xplore
