#include "explore/cache.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "core/fault_injector.h"
#include "core/json.h"
#include "core/json_report.h"

namespace mhla::xplore {

namespace {

/// Document format version.  Each bump follows a change of the config text
/// keys are hashed over, so no older key can ever hit again: version 2
/// dropped the engine/reference toggles, version 3 the bnb-par scheduler
/// knobs (`bnb_work_stealing`, `bnb_tasks_per_thread`).
constexpr std::int64_t kFormatVersion = 3;

std::string hex_key(std::uint64_t key) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(key));
  return text;
}

std::uint64_t parse_hex_key(const std::string& text) {
  if (text.size() != 16 || text.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw std::invalid_argument("cache key '" + text + "' is not 16 lowercase hex digits");
  }
  return std::stoull(text, nullptr, 16);
}

using KeyedEntry = std::pair<std::uint64_t, CacheEntry>;

/// One cache entry from its JSON object — shared by the well-formed document
/// path and the line-by-line salvage scanner, so both accept exactly the
/// same entries.  Throws on any missing/mistyped field.
KeyedEntry entry_from_json(const core::Json& item) {
  CacheEntry entry;
  entry.l1_bytes = item.at("l1_bytes").integer();
  entry.l2_bytes = item.at("l2_bytes").integer();
  entry.strategy = item.at("strategy").string();
  entry.with_te = item.at("with_te").boolean();
  entry.cycles = item.at("cycles").number();
  entry.energy_nj = item.at("energy_nj").number();
  entry.status = assign::parse_search_status(item.at("status").string());
  return {parse_hex_key(item.at("key").string()), std::move(entry)};
}

/// Salvage pass over a malformed document.  save() emits one entry object
/// per line, so every line that parses as a complete {"key": ...} object is
/// a trustworthy entry regardless of what happened to the document around
/// it (truncation, interleaved writes, a mangled header).  Anything else is
/// skipped.
std::vector<KeyedEntry> salvage_entries(const std::string& text) {
  std::vector<KeyedEntry> found;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t open = line.find('{');
    std::size_t close = line.rfind('}');
    if (open == std::string::npos || close == std::string::npos || close <= open) continue;
    if (line.find("\"key\"") == std::string::npos) continue;
    try {
      found.push_back(entry_from_json(core::Json::parse(line.substr(open, close - open + 1))));
    } catch (const std::exception&) {
      continue;  // damaged entry — skip it, keep scanning
    }
  }
  return found;
}

/// fsync `path`, a file or a directory.  Without it on the temp file, the
/// atomic rename below can land before the data blocks do, and a crash
/// between the two leaves a complete-looking name pointing at garbage.
/// Returns false when the path cannot be opened or the flush fails (no-op
/// success on Windows).
bool sync_path(const std::string& path) {
#ifndef _WIN32
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

/// Replace `path` with `text` via temp file + fsync + atomic rename.
void write_atomically(const std::string& path, const std::string& text) {
  // An interrupted or failed write must not truncate away the previously
  // accumulated entries (the same hazard load() refuses to run into on an
  // unreadable file).  The temp name mixes a random draw with the thread id
  // and the clock — std::random_device alone may be deterministic on some
  // platforms — so concurrent saves to one path cannot interleave inside a
  // single temp file; last rename wins atomically.
  std::uint64_t nonce = std::random_device{}();
  nonce = nonce * 0x9e3779b97f4a7c15ULL ^
          static_cast<std::uint64_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  nonce ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const std::string tmp = path + ".tmp." + std::to_string(nonce);
  auto fail = [&](const std::string& what) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw std::runtime_error(what);
  };

  // Fault-injection sites (core::FaultInjector::Site::IoWrite) bracket the
  // three steps that can die for real — open, write+flush, rename — so the
  // crash-consistency tests can kill the save at each one and assert the
  // previously persisted document survived untouched.
  using core::FaultInjector;
  if (FaultInjector::fire(FaultInjector::Site::IoWrite)) {
    throw std::runtime_error("injected I/O fault opening result cache temp '" + tmp + "'");
  }
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write result cache '" + tmp + "'");
    out << text << "\n";
    out.flush();
    if (FaultInjector::fire(FaultInjector::Site::IoWrite)) {
      fail("injected I/O fault writing result cache temp '" + tmp + "'");
    }
    if (!out) fail("failed writing result cache '" + tmp + "'");
  }
  if (!sync_path(tmp)) fail("cannot flush result cache temp '" + tmp + "' to disk");

  if (FaultInjector::fire(FaultInjector::Site::IoWrite)) {
    fail("injected I/O fault renaming result cache temp '" + tmp + "' into place");
  }
  std::error_code rename_error;
  std::filesystem::rename(tmp, path, rename_error);
  if (rename_error) {
    fail("cannot move result cache into place at '" + path + "': " + rename_error.message());
  }
  // Persist the directory entry the rename created.  Best effort: some
  // filesystems reject fsync on directories, and the data is durable already.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  sync_path(parent.empty() ? "." : parent.string());
}

/// Finalizer mix (splitmix64 tail): cache keys are already FNV hashes, but
/// the mix keeps any externally supplied key set from piling onto one shard.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

ResultCache::ResultCache(CacheBounds bounds, std::size_t shard_count) : bounds_(bounds) {
  // A power of two, so shard selection is a mask, not a modulo.
  std::size_t shards = std::bit_ceil(shard_count);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  if (bounds_.max_entries > 0) {
    // The floor wins over a smaller cap (a cache that must keep N entries
    // cannot be bounded below N), and every shard gets at least one slot.
    std::size_t cap = std::max(bounds_.max_entries, bounds_.evict_floor);
    per_shard_cap_ = std::max<std::size_t>(1, (cap + shards - 1) / shards);
  }
}

ResultCache::Shard& ResultCache::shard_of(std::uint64_t key) const {
  return *shards_[mix(key) & (shards_.size() - 1)];
}

bool ResultCache::claim_eviction() {
  std::size_t current = size_.load(std::memory_order_relaxed);
  while (current > bounds_.evict_floor) {
    if (size_.compare_exchange_weak(current, current - 1, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

bool ResultCache::lookup(std::uint64_t key, CacheEntry& out) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.misses.add();
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  out = it->second.entry;
  shard.hits.add();
  return true;
}

bool ResultCache::insert(std::uint64_t key, CacheEntry entry) {
  // The cacheability guard lives here, in the cache layer itself: a
  // truncated (BudgetExhausted) or infeasible result must never be stored,
  // no matter which caller produced it — its value depends on knobs the
  // cache key normalizes away.
  if (!cacheable_status(entry.status)) {
    rejected_.add();
    return false;
  }
  Shard& shard = shard_of(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second.entry = std::move(entry);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    } else {
      shard.lru.push_front(key);
      shard.map.emplace(key, Node{std::move(entry), shard.lru.begin()});
      size_.fetch_add(1, std::memory_order_relaxed);
      // Evict this shard's cold tail past the per-shard cap.  Each removal
      // first claims its decrement against the global floor, so concurrent
      // evictions on other shards can never team up to breach it.  The
      // just-inserted entry sits at the LRU front and the cap is >= 1, so
      // it is never its own victim.
      while (per_shard_cap_ != 0 && shard.map.size() > per_shard_cap_) {
        if (!claim_eviction()) break;
        std::uint64_t victim = shard.lru.back();
        shard.lru.pop_back();
        shard.map.erase(victim);
        shard.evictions.add();
      }
    }
  }
  insertions_.add();
  version_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CacheStats ResultCache::stats() const {
  // Every row is a lock-free read of the same cells a registered metrics
  // source reads: the `cache_stats` verb and a registry snapshot cannot
  // disagree about this cache.
  CacheStats stats;
  stats.shards = shards_.size();
  stats.entries = size();
  stats.insertions = insertions_.value();
  stats.rejected = rejected_.value();
  for (const auto& shard : shards_) {
    stats.hits += shard->hits.value();
    stats.misses += shard->misses.value();
    stats.evictions += shard->evictions.value();
  }
  stats.saves = saves_.value();
  return stats;
}

std::uint64_t ResultCache::register_metrics(obs::Registry& registry, std::string prefix) const {
  return registry.add_source([this, prefix = std::move(prefix)](obs::MetricsSnapshot& out) {
    CacheStats s = stats();
    out.counters.emplace_back(prefix + ".hits", s.hits);
    out.counters.emplace_back(prefix + ".misses", s.misses);
    out.counters.emplace_back(prefix + ".insertions", s.insertions);
    out.counters.emplace_back(prefix + ".rejected", s.rejected);
    out.counters.emplace_back(prefix + ".evictions", s.evictions);
    out.counters.emplace_back(prefix + ".saves", s.saves);
    out.gauges.emplace_back(prefix + ".entries", static_cast<std::int64_t>(s.entries));
  });
}

std::vector<std::pair<std::uint64_t, CacheEntry>> ResultCache::entries() const {
  std::vector<KeyedEntry> copy;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, node] : shard->map) copy.emplace_back(key, node.entry);
  }
  std::sort(copy.begin(), copy.end(),
            [](const KeyedEntry& a, const KeyedEntry& b) { return a.first < b.first; });
  return copy;
}

ResultCache::LoadReport ResultCache::load(const std::string& path) {
  LoadReport report;
  std::ifstream in(path);
  if (!in) {
    // Only a file that does not exist means a cold cache.  An existing but
    // unreadable one must not: proceeding cold and saving later would
    // truncate away every previously accumulated entry.
    if (!std::filesystem::exists(path)) return report;
    throw std::runtime_error("result cache '" + path + "' exists but cannot be read");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const bool was_empty = size() == 0;

  std::vector<KeyedEntry> parsed;
  std::int64_t stale_version = 0;
  try {
    core::Json document = core::Json::parse(text);
    std::int64_t version = document.at("version").integer();
    if (version >= 1 && version < kFormatVersion) {
      stale_version = version;
    } else {
      if (version != kFormatVersion) throw std::invalid_argument("unsupported cache version");
      for (const core::Json& item : document.at("entries").array()) {
        parsed.push_back(entry_from_json(item));
      }
    }
  } catch (const std::exception&) {
    // A crash mid-write elsewhere (or a stray editor) must not cost the warm
    // entries that are still intact.
    report.clean = false;
    parsed = salvage_entries(text);
  }

  std::unordered_set<std::uint64_t> accepted;
  for (auto& [key, entry] : parsed) {
    if (insert(key, std::move(entry))) accepted.insert(key);
  }
  report.entries = accepted.size();

  if (stale_version != 0) {
    // Intact but written under an older key format: every entry is dead
    // weight, so nothing is kept and the next save replaces the document.
    report.clean = false;
    report.message = "result cache '" + path + "' has stale format version " +
                     std::to_string(stale_version) + " (current " +
                     std::to_string(kFormatVersion) + "); its entries were dropped";
  } else if (!report.clean) {
    // Preserve the damaged original next to the cache before the next save
    // overwrites it; the salvage may be incomplete and the wreckage is the
    // only evidence of what was lost.
    std::string quarantine = path + ".quarantine";
    if (!(std::ofstream(quarantine, std::ios::trunc) << text)) quarantine.clear();
    report.salvaged = report.entries;
    report.quarantine_path = quarantine;
    report.message = "result cache '" + path + "' is malformed; salvaged " +
                     std::to_string(report.salvaged) +
                     (report.salvaged == 1 ? " entry" : " entries") +
                     (quarantine.empty() ? "; could not preserve the damaged original"
                                         : "; damaged original preserved at '" + quarantine + "'");
  }

  // A document that needed salvage or is stale must be rewritten by the
  // next save_if_dirty; a clean one loaded into an empty cache already
  // matches memory.  (Loads run before the cache is shared, so no insert
  // from another thread can slip between the two.)
  std::lock_guard<std::mutex> lock(save_mu_);
  if (!report.clean) {
    version_.fetch_add(1, std::memory_order_relaxed);
  } else if (was_empty) {
    saved_version_ = version_.load(std::memory_order_acquire);
  }
  return report;
}

bool ResultCache::persist(const std::string& path, bool only_if_dirty) const {
  std::lock_guard<std::mutex> lock(save_mu_);
  // Read the version before serializing: entries that land in between are
  // persisted now but re-persisted by the next dirty save — duplicated work
  // at worst, never lost work.  A failed save leaves the cache dirty.
  std::uint64_t version = version_.load(std::memory_order_acquire);
  if (only_if_dirty && version == saved_version_) return false;
  write_atomically(path, to_json());
  saved_version_ = version;
  saves_.add();
  return true;
}

std::string ResultCache::to_json() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << "{\n  \"version\": " << kFormatVersion << ",\n  \"entries\": [";
  bool first = true;
  for (const auto& [key, entry] : entries()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"key\": \"" << hex_key(key) << "\", \"l1_bytes\": " << entry.l1_bytes
        << ", \"l2_bytes\": " << entry.l2_bytes << ", \"strategy\": \""
        << core::json_escape(entry.strategy) << "\", \"with_te\": "
        << (entry.with_te ? "true" : "false")
        << ", \"status\": \"" << assign::to_string(entry.status)
        << "\", \"cycles\": " << core::json_number_exact(entry.cycles)
        << ", \"energy_nj\": " << core::json_number_exact(entry.energy_nj) << "}";
  }
  out << (first ? "" : "\n  ") << "]\n}";
  return out.str();
}

}  // namespace mhla::xplore
