// Single-flight build cache: N concurrent misses on the same key run the
// build exactly once; everyone else blocks on the winner's future. The
// JIT code cache (programs keyed by chunk bytes) uses it so a burst of
// identical cold jobs costs one compile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace lol::codegen {

template <typename V>
class SingleFlight {
 public:
  explicit SingleFlight(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached (or freshly built) value for `key`. `build` runs
  /// outside the lock in exactly one caller; the rest wait on its future.
  /// `cache_ok(v)` decides whether the finished value is worth keeping —
  /// failed builds are evicted so a later caller can retry.
  template <typename Build, typename CacheOk>
  V get_or_build(const std::string& key, Build&& build, CacheOk&& cache_ok) {
    std::promise<V> p;  // lives here only if this caller becomes the builder
    std::shared_future<V> fut;
    std::uint64_t my_build = 0;
    bool builder = false;
    {
      std::lock_guard<std::mutex> lk(m_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        lru_.splice(lru_.end(), lru_, it->second.lru_pos);
        fut = it->second.fut;
      } else {
        Entry e;
        e.build_id = my_build = ++next_build_id_;
        e.fut = fut = p.get_future().share();
        lru_.push_back(key);
        e.lru_pos = std::prev(lru_.end());
        entries_.emplace(key, std::move(e));
        builder = true;
      }
    }
    if (builder) {
      try {
        V v = build();
        bool keep = cache_ok(v);
        p.set_value(std::move(v));
        if (!keep) erase_if_mine(key, my_build);
        trim();
      } catch (...) {
        p.set_exception(std::current_exception());
        erase_if_mine(key, my_build);
        throw;
      }
    }
    return fut.get();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return entries_.size();
  }

 private:
  struct Entry {
    std::shared_future<V> fut;
    std::list<std::string>::iterator lru_pos;
    std::uint64_t build_id = 0;
  };

  /// Only the builder that created the entry may remove it: by the time a
  /// failed build erases its key, a fresh entry for the same key may
  /// already be in flight and must not be dropped.
  void erase_if_mine(const std::string& key, std::uint64_t build_id) {
    std::lock_guard<std::mutex> lk(m_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.build_id == build_id) {
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
    }
  }

  void trim() {
    std::lock_guard<std::mutex> lk(m_);
    while (entries_.size() > capacity_ && lru_.size() > 1) {
      const std::string& victim = lru_.front();
      entries_.erase(victim);
      lru_.pop_front();
    }
  }

  mutable std::mutex m_;
  std::size_t capacity_;
  std::uint64_t next_build_id_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;
};

}  // namespace lol::codegen
