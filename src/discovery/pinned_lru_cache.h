// The one cache mechanism of the lake-wide caches (JoinIndexCache and
// LakeSketchCache supply a key and a builder; DESIGN.md §7).
//
// A key's prefix before the first '\0' names its table: it scopes
// CarryOver and labels the `cache_evict` / `cache_rebuild` events (`table`,
// plus `column` for a two-part key). On a miss the builder runs holding
// only the entry's build mutex, so one entry builds once while others build
// concurrently. Lock order: a build mutex may take the cache mutex, never
// the reverse. Failed builds are sticky. Pins stay valid across eviction.
// Under a budget, victims go oldest recency tick first, then largest
// footprint (a prewarm batch shares one tick), then lowest key; an entry
// larger than the budget is handed out pin-only. The non-deterministic
// `<prefix>.bytes` gauge sums every live cache on the registry: a destroyed
// cache gives its bytes back.

#ifndef AUTOFEAT_DISCOVERY_PINNED_LRU_CACHE_H_
#define AUTOFEAT_DISCOVERY_PINNED_LRU_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/status.h"

namespace autofeat {

template <typename Value>
class PinnedLruCache {
 public:
  using Pin = std::shared_ptr<const Value>;

  struct Built {  // what a builder returns: the value and its footprint
    Pin value;
    size_t bytes = 0;
  };

  /// Hit (sticky failures included), first build, or build after eviction.
  enum class Source { kHit, kBuild, kRebuild };

  struct Lookup { Result<Pin> pin; Source source; };

  /// `cache_name` is the events' `cache` field; `budget_bytes` 0 = no bound.
  PinnedLruCache(obs::MetricsRegistry* metrics,
                 const std::string& metric_prefix, std::string cache_name,
                 size_t budget_bytes)
      : state_(std::make_unique<State>()) {
    state_->cache_name = std::move(cache_name);
    state_->budget_bytes = budget_bytes;
    state_->evictions = obs::GetCounter(metrics, metric_prefix + ".evictions",
                                        /*deterministic=*/false);
    state_->bytes = obs::GetGauge(metrics, metric_prefix + ".bytes",
                                  /*deterministic=*/false);
    state_->bytes_peak = obs::GetGauge(metrics, metric_prefix + ".bytes_peak",
                                       /*deterministic=*/false);
  }

  /// The entry under `key`; `build()` returns Result<Built> and runs on the
  /// first request and after eviction. `tick` 0 draws a fresh recency tick.
  template <typename Builder>
  Lookup GetOrBuild(const std::string& key, Builder&& build,
                    uint64_t tick = 0) {
    State& st = *state_;
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      std::shared_ptr<Entry>& slot = st.entries[key];
      if (slot == nullptr) slot = std::make_shared<Entry>();
      if (tick == 0) tick = ++st.tick;
      slot->last_used = std::max(slot->last_used, tick);
      entry = slot;
      if (entry->value != nullptr) return {entry->value, Source::kHit};
      if (!entry->failure.ok()) return {entry->failure, Source::kHit};
    }
    std::lock_guard<std::mutex> build_lock(entry->build_mutex);
    bool rebuild = false;
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      if (entry->value != nullptr) return {entry->value, Source::kHit};
      if (!entry->failure.ok()) return {entry->failure, Source::kHit};
      rebuild = entry->ever_built;
    }
    Result<Built> built = build();
    const Source source = rebuild ? Source::kRebuild : Source::kBuild;

    std::lock_guard<std::mutex> lock(st.mutex);
    entry->ever_built = true;
    if (!built.ok()) {
      entry->failure = built.status();
      return {entry->failure, source};
    }
    if (rebuild) AppendEvent(st, "cache_rebuild", key, built->bytes);
    if (st.budget_bytes == 0 || built->bytes <= st.budget_bytes) {
      InstallLocked(st, *entry, built->value, built->bytes);
    }
    return {built->value, source};
  }

  /// A fresh recency tick for one batch of GetOrBuild calls.
  uint64_t BatchTick() {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return ++state_->tick;
  }

  /// Installs `prev`'s resident entries whose table is not invalidated and
  /// passes `has_table`, oldest tick first (a budget sheds the least
  /// recently used). `prev` may be serving readers. Returns the count.
  template <typename HasTable>
  size_t CarryOver(const PinnedLruCache& prev,
                   const std::unordered_set<std::string>& invalidated_tables,
                   HasTable&& has_table) {
    struct Carried {
      std::string key;
      Pin value;
      size_t bytes;
      uint64_t last_used;
    };
    // Snapshot under prev's lock, install under ours — never both at once.
    std::vector<Carried> carried;
    uint64_t prev_tick = 0;
    {
      std::lock_guard<std::mutex> lock(prev.state_->mutex);
      prev_tick = prev.state_->tick;
      for (const auto& [key, entry] : prev.state_->entries) {
        const std::string table = key.substr(0, key.find('\0'));
        if (entry->value != nullptr && invalidated_tables.count(table) == 0 &&
            has_table(table)) {
          carried.push_back(
              {key, entry->value, entry->bytes, entry->last_used});
        }
      }
    }
    std::stable_sort(carried.begin(), carried.end(),
                     [](const Carried& a, const Carried& b) {
                       return a.last_used < b.last_used;
                     });
    State& st = *state_;
    std::lock_guard<std::mutex> lock(st.mutex);
    st.tick = std::max(st.tick, prev_tick);
    size_t installed = 0;
    for (Carried& c : carried) {
      if (st.budget_bytes != 0 && c.bytes > st.budget_bytes) continue;
      std::shared_ptr<Entry>& slot = st.entries[c.key];
      if (slot == nullptr) slot = std::make_shared<Entry>();
      if (slot->value != nullptr) continue;
      slot->last_used = c.last_used;
      slot->ever_built = true;
      InstallLocked(st, *slot, std::move(c.value), c.bytes);
      ++installed;
    }
    return installed;
  }

  /// Attaches the event log. Call before the cache is shared.
  void set_event_log(obs::EventLog* log) { state_->event_log = log; }

  /// Evicts every resident entry, in key order; pins stay valid.
  void EvictAll() {
    EvictWhere([](const std::string&) { return true; });
  }

  /// Evicts the entries whose key hash differs from `draw` in the low bit:
  /// the seeded random eviction-stress schedule.
  void EvictRandomHalf(uint64_t draw) {
    EvictWhere([draw](const std::string& key) {
      return ((Fnv1a64(key) ^ draw) & 1) != 0;
    });
  }

  /// Entries ever requested (resident, evicted or failed).
  size_t num_entries() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->entries.size();
  }

  /// Entries currently holding a built value.
  size_t num_resident() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return std::count_if(
        state_->entries.begin(), state_->entries.end(),
        [](const auto& slot) { return slot.second->value != nullptr; });
  }

  /// Sum of the resident entries' bytes: this cache's share of the gauge.
  size_t resident_bytes() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->resident_bytes;
  }

 private:
  struct Entry {
    std::mutex build_mutex;  // serialises builders; see lock order above
    // Guarded by State::mutex:
    Pin value;               // null when not built, evicted or failed
    size_t bytes = 0;        // footprint of `value` while resident
    uint64_t last_used = 0;  // recency tick of the latest request
    bool ever_built = false; // tells builds from rebuilds
    Status failure;          // sticky build failure
  };

  // Behind a unique_ptr so the cache is movable (mutexes are not); a
  // moved-from cache has no state and gives back no bytes.
  struct State {
    ~State() {
      obs::AddBytesWithPeak(bytes, bytes_peak,
                            -static_cast<int64_t>(resident_bytes));
    }

    mutable std::mutex mutex;
    std::map<std::string, std::shared_ptr<Entry>> entries;  // key-ordered
    size_t resident_bytes = 0;
    uint64_t tick = 0;
    size_t budget_bytes = 0;
    std::string cache_name;
    obs::EventLog* event_log = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* bytes = nullptr;
    obs::Gauge* bytes_peak = nullptr;
  };

  static void AppendEvent(State& st, const char* type, const std::string& key,
                          size_t bytes) {
    const size_t sep = key.find('\0');
    if (sep == std::string::npos) {
      obs::Append(st.event_log, type,
                  {{"cache", st.cache_name}, {"table", key}, {"bytes", bytes}});
    } else {
      obs::Append(st.event_log, type,
                  {{"cache", st.cache_name},
                   {"table", key.substr(0, sep)},
                   {"column", key.substr(sep + 1)},
                   {"bytes", bytes}});
    }
  }

  static void EvictLocked(State& st, const std::string& key, Entry& entry) {
    st.resident_bytes -= entry.bytes;
    obs::AddBytesWithPeak(st.bytes, st.bytes_peak,
                          -static_cast<int64_t>(entry.bytes));
    AppendEvent(st, "cache_evict", key, entry.bytes);
    entry.value.reset();
    entry.bytes = 0;
    obs::Increment(st.evictions);
  }

  template <typename Pred>
  void EvictWhere(Pred&& pred) {
    State& st = *state_;
    std::lock_guard<std::mutex> lock(st.mutex);
    for (auto& [key, entry] : st.entries) {
      if (entry->value != nullptr && pred(key)) EvictLocked(st, key, *entry);
    }
  }

  // Evicts victims until `bytes` more fit (keys ascend, so strict
  // comparisons keep the lowest key on ties), then makes `value` resident.
  static void InstallLocked(State& st, Entry& entry, Pin value, size_t bytes) {
    while (st.budget_bytes != 0 &&
           st.resident_bytes + bytes > st.budget_bytes) {
      const std::pair<const std::string, std::shared_ptr<Entry>>* victim =
          nullptr;
      for (const auto& slot : st.entries) {
        const Entry& e = *slot.second;
        if (e.value == nullptr || &e == &entry) continue;
        const Entry* v = victim != nullptr ? victim->second.get() : nullptr;
        if (v == nullptr || e.last_used < v->last_used ||
            (e.last_used == v->last_used && e.bytes > v->bytes)) {
          victim = &slot;
        }
      }
      if (victim == nullptr) break;
      EvictLocked(st, victim->first, *victim->second);
    }
    entry.value = std::move(value);
    entry.bytes = bytes;
    st.resident_bytes += bytes;
    obs::AddBytesWithPeak(st.bytes, st.bytes_peak,
                          static_cast<int64_t>(bytes));
  }

  std::unique_ptr<State> state_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_PINNED_LRU_CACHE_H_
