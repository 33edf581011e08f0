#include "explore/cache.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

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

/// Thrown by from_json for a well-formed document of an older format
/// version: load() reports it as stale instead of salvaging it as damaged.
struct StaleVersion : std::invalid_argument {
  std::int64_t version;
  explicit StaleVersion(std::int64_t v)
      : std::invalid_argument("stale cache version " + std::to_string(v) + " (current " +
                              std::to_string(kFormatVersion) + ")"),
        version(v) {}
};

std::string hex_key(std::uint64_t key) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << std::hex << std::setw(16) << std::setfill('0') << key;
  return out.str();
}

std::uint64_t parse_hex_key(const std::string& text) {
  if (text.size() != 16 || text.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw std::invalid_argument("cache key '" + text + "' is not 16 lowercase hex digits");
  }
  return std::stoull(text, nullptr, 16);
}

/// One cache entry from its JSON object — shared by the well-formed document
/// path (from_json) and the line-by-line salvage scanner, so both accept
/// exactly the same entries.  Throws on any missing/mistyped field.
std::pair<std::uint64_t, ResultCache::Entry> entry_from_json(const core::Json& item) {
  ResultCache::Entry entry;
  entry.l1_bytes = item.at("l1_bytes").integer();
  entry.l2_bytes = item.at("l2_bytes").integer();
  entry.strategy = item.at("strategy").string();
  entry.with_te = item.at("with_te").boolean();
  entry.cycles = item.at("cycles").number();
  entry.energy_nj = item.at("energy_nj").number();
  entry.status = assign::parse_search_status(item.at("status").string());
  return {parse_hex_key(item.at("key").string()), std::move(entry)};
}

/// Flush a just-written file to stable storage.  Without this, the atomic
/// rename below can land before the data blocks do, and a crash between the
/// two leaves a complete-looking name pointing at garbage.  Returns false
/// when the platform reports the flush failed (no-op success on Windows).
bool sync_file(const std::string& path) {
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

/// Persist the directory entry a rename just created.  Best effort: some
/// filesystems reject fsync on directories, and the file data itself is
/// already durable at this point.
void sync_parent_dir(const std::string& path) {
#ifndef _WIN32
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  int fd = ::open(parent.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
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

ResultCache ResultCache::load(const std::string& path) {
  LoadReport report;
  ResultCache cache = load(path, report);
  if (!report.clean) std::cerr << "warning: " << report.message << "\n";
  return cache;
}

ResultCache ResultCache::load(const std::string& path, LoadReport& report) {
  report = LoadReport{};
  std::ifstream in(path);
  if (!in) {
    // Only a file that does not exist means a cold cache.  An existing but
    // unreadable one must not: proceeding cold and saving later would
    // truncate away every previously accumulated entry.
    if (!std::filesystem::exists(path)) return ResultCache{};
    throw std::runtime_error("result cache '" + path + "' exists but cannot be read");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  try {
    ResultCache cache = from_json(text);
    report.entries = cache.size();
    return cache;
  } catch (const StaleVersion& stale) {
    // Intact but written under an older key format: every entry is dead
    // weight, so load empty and let the next save replace the document.
    report.clean = false;
    report.message = "result cache '" + path + "' has stale format version " +
                     std::to_string(stale.version) + " (current " +
                     std::to_string(kFormatVersion) + "); its entries were dropped";
    return ResultCache{};
  } catch (const std::exception&) {
    // Fall through to the salvage path: a crash mid-write elsewhere (or a
    // stray editor) must not cost the warm entries that are still intact.
  }

  // Salvage pass.  save() emits one entry object per line, so every line
  // that parses as a complete {"key": ...} object is a trustworthy entry
  // regardless of what happened to the document around it (truncation,
  // interleaved writes, a mangled header).  Anything else is skipped.
  ResultCache cache;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t open = line.find('{');
    std::size_t close = line.rfind('}');
    if (open == std::string::npos || close == std::string::npos || close <= open) continue;
    if (line.find("\"key\"") == std::string::npos) continue;
    try {
      core::Json item = core::Json::parse(line.substr(open, close - open + 1));
      auto [key, entry] = entry_from_json(item);
      cache.insert(key, std::move(entry));
    } catch (const std::exception&) {
      continue;  // damaged entry — skip it, keep scanning
    }
  }

  // Preserve the damaged original next to the cache before the next save()
  // overwrites it; the salvage may be incomplete and the wreckage is the
  // only evidence of what was lost.
  std::string quarantine = path + ".quarantine";
  {
    std::ofstream out(quarantine, std::ios::trunc);
    if (out) out << text;
    if (!out) quarantine.clear();
  }

  report.clean = false;
  report.entries = report.salvaged = cache.size();
  report.quarantine_path = quarantine;
  std::ostringstream message;
  message << "result cache '" << path << "' is malformed; salvaged " << report.salvaged
          << " entr" << (report.salvaged == 1 ? "y" : "ies");
  if (!quarantine.empty()) {
    message << "; damaged original preserved at '" << quarantine << "'";
  } else {
    message << "; could not preserve the damaged original";
  }
  report.message = message.str();
  return cache;
}

void ResultCache::save(const std::string& path) const {
  // Write-to-temp + rename: an interrupted or failed write must not
  // truncate away the previously accumulated entries (the same hazard
  // load() refuses to run into on an unreadable file).  The temp name mixes
  // a random draw with the thread id and the clock — std::random_device
  // alone may be deterministic on some platforms — so concurrent shard
  // saves to one path cannot interleave inside a single temp file; last
  // rename wins atomically.
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
    out << to_json() << "\n";
    out.flush();
    if (FaultInjector::fire(FaultInjector::Site::IoWrite)) {
      fail("injected I/O fault writing result cache temp '" + tmp + "'");
    }
    if (!out) fail("failed writing result cache '" + tmp + "'");
  }
  if (!sync_file(tmp)) fail("cannot flush result cache temp '" + tmp + "' to disk");

  if (FaultInjector::fire(FaultInjector::Site::IoWrite)) {
    fail("injected I/O fault renaming result cache temp '" + tmp + "' into place");
  }
  std::error_code rename_error;
  std::filesystem::rename(tmp, path, rename_error);
  if (rename_error) {
    fail("cannot move result cache into place at '" + path + "': " + rename_error.message());
  }
  sync_parent_dir(path);
}

ResultCache ResultCache::from_json(const std::string& text) {
  core::Json document = core::Json::parse(text);
  std::int64_t version = document.at("version").integer();
  if (version >= 1 && version < kFormatVersion) throw StaleVersion(version);
  if (version != kFormatVersion) {
    throw std::invalid_argument("unsupported cache version " + std::to_string(version));
  }
  ResultCache cache;
  for (const core::Json& item : document.at("entries").array()) {
    auto [key, entry] = entry_from_json(item);
    cache.insert(key, std::move(entry));
  }
  return cache;
}

std::string ResultCache::to_json(int indent) const {
  std::string p0(static_cast<std::size_t>(indent) * 2, ' ');
  std::string p1 = p0 + "  ";
  std::string p2 = p1 + "  ";
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << p0 << "{\n" << p1 << "\"version\": " << kFormatVersion << ",\n"
      << p1 << "\"entries\": [";
  bool first = true;
  for (const auto& [key, entry] : entries_) {  // std::map: sorted, byte-stable
    out << (first ? "\n" : ",\n");
    first = false;
    out << p2 << "{\"key\": \"" << hex_key(key) << "\", \"l1_bytes\": " << entry.l1_bytes
        << ", \"l2_bytes\": " << entry.l2_bytes << ", \"strategy\": \""
        << core::json_escape(entry.strategy) << "\", \"with_te\": "
        << (entry.with_te ? "true" : "false")
        << ", \"status\": \"" << assign::to_string(entry.status)
        << "\", \"cycles\": " << core::json_number_exact(entry.cycles)
        << ", \"energy_nj\": " << core::json_number_exact(entry.energy_nj) << "}";
  }
  out << (first ? "" : "\n" + p1) << "]\n" << p0 << "}";
  return out.str();
}

const ResultCache::Entry* ResultCache::find(std::uint64_t key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

bool ResultCache::lookup(std::uint64_t key, CacheEntry& out) {
  const Entry* entry = find(key);
  if (!entry) return false;
  out = *entry;
  return true;
}

bool ResultCache::insert(std::uint64_t key, CacheEntry entry) {
  // The cacheability guard lives here, in the cache layer itself: a
  // truncated (BudgetExhausted) or infeasible result must never be stored,
  // no matter which caller produced it — its value depends on knobs the
  // cache key normalizes away.
  if (!cacheable_status(entry.status)) return false;
  entries_[key] = std::move(entry);
  return true;
}

void ResultCache::merge_from(const ResultCache& other) {
  for (const auto& [key, entry] : other.entries_) insert(key, entry);
}

}  // namespace mhla::xplore
