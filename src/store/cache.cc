#include "store/cache.h"

#include "util/metrics.h"

namespace pcw::store {

namespace metrics = util::metrics;

BlockCache::BlockCache(std::uint64_t capacity_bytes, unsigned shards) {
  if (shards == 0) shards = 1;
  shard_budget_ = capacity_bytes / shards;
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

BlockCache::~BlockCache() {
  std::uint64_t resident = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    resident += s->bytes;
  }
  if (resident != 0) {
    metrics::Registry::get().store_cache_bytes.add(-static_cast<std::int64_t>(resident));
  }
}

BlockCache::Shard& BlockCache::shard_of(const CacheKey& key) {
  const std::size_t h = CacheKeyHash{}(key);
  return *shards_[h % shards_.size()];
}

/// Caller holds s.mu. Evicts from the LRU tail until `key`'s value fits,
/// then inserts. An entry bigger than the whole shard budget stays
/// uncached (the caller still gets the decoded value).
void BlockCache::insert_locked(Shard& s, const CacheKey& key,
                               std::shared_ptr<const CachedValue> value) {
  const std::uint64_t size = value->bytes.size();
  if (size > shard_budget_) return;
  metrics::Registry& reg = metrics::Registry::get();
  while (s.bytes + size > shard_budget_ && !s.lru.empty()) {
    const CacheKey& victim = s.lru.back();
    auto it = s.map.find(victim);
    s.bytes -= it->second.value->bytes.size();
    reg.store_cache_bytes.add(-static_cast<std::int64_t>(it->second.value->bytes.size()));
    reg.store_cache_evictions.add(1);
    s.map.erase(it);
    s.lru.pop_back();
  }
  s.lru.push_front(key);
  s.map.emplace(key, Shard::Entry{std::move(value), s.lru.begin()});
  s.bytes += size;
  reg.store_cache_bytes.add(static_cast<std::int64_t>(size));
}

Result<std::shared_ptr<const CachedValue>> BlockCache::get_or_fill(
    const CacheKey& key, const std::function<Result<CachedValue>()>& fill) {
  metrics::Registry& reg = metrics::Registry::get();
  Shard& s = shard_of(key);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      reg.store_cache_hits.add(1);
      return it->second.value;
    }
    auto fit = s.flights.find(key);
    if (fit != s.flights.end()) {
      flight = fit->second;
      reg.store_coalesced.add(1);
    } else {
      flight = std::make_shared<Flight>();
      s.flights.emplace(key, flight);
      leader = true;
      reg.store_cache_misses.add(1);
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> lk(flight->mu);
    flight->cv.wait(lk, [&] { return flight->done; });
    return *flight->result;
  }

  // Flight leader: decode outside every lock, publish, then wake waiters.
  Result<std::shared_ptr<const CachedValue>> outcome =
      Status(StatusCode::kInternal, "store: cache fill did not run");
  try {
    Result<CachedValue> filled = fill();
    if (filled.ok()) {
      outcome = std::make_shared<const CachedValue>(std::move(filled).value());
    } else {
      outcome = filled.status();
    }
  } catch (const std::exception& e) {
    outcome = Status(StatusCode::kInternal, std::string("store: cache fill: ") + e.what());
  }

  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (outcome.ok() && shard_budget_ != 0 && s.map.find(key) == s.map.end()) {
      insert_locked(s, key, outcome.value());
    }
    s.flights.erase(key);
  }
  {
    std::lock_guard<std::mutex> lk(flight->mu);
    flight->result = outcome;
    flight->done = true;
  }
  flight->cv.notify_all();
  return outcome;
}

std::shared_ptr<const CachedValue> BlockCache::lookup(const CacheKey& key) {
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) return nullptr;
  s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
  util::metrics::Registry::get().store_cache_hits.add(1);
  return it->second.value;
}

std::uint64_t BlockCache::resident_bytes() const {
  std::uint64_t total = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    total += sp->bytes;
  }
  return total;
}

}  // namespace pcw::store
