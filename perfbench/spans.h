// In-memory span log for the benchmark's traced runs.
//
// A span is one timed call into a library layer: an interned name, the
// span that was open when it started (its parent), the id of the image or
// request it belongs to (`key`), an optional exact count (spikes emitted,
// MACs replayed, cache hits), and steady-clock start/end nanoseconds.
// Spans stay in memory until write() dumps them at the end of the run;
// run.py derives self times (duration minus the part covered by child
// spans) from the dump. A disabled log records nothing, so the untraced
// reference passes share the traced code path at the cost of one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Stable id of `name`; intern once outside the timed loops.
  std::uint32_t intern(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }

  /// Opens a span nested under the innermost open one; -1 when disabled.
  std::int64_t open(std::uint32_t name, std::uint64_t key) {
    if (!enabled_) {
      return -1;
    }
    const std::int64_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, parent, key, 0, now_ns(), 0});
    const auto index = static_cast<std::int64_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }

  /// Closes `span`, which must be the innermost open one.
  void close(std::int64_t span, std::uint64_t count) {
    if (span < 0) {
      return;
    }
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.end_ns = now_ns();
    s.count = count;
    open_.pop_back();
  }

  void reserve(std::size_t n) {
    if (enabled_) {
      spans_.reserve(n);
    }
  }

  /// Dumps the name table ("N id name") and every span
  /// ("S index parent name key count start_ns end_ns").
  void write(std::FILE* out) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(out, "N %zu %s\n", i, names_[i].c_str());
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "S %zu %lld %u %llu %llu %lld %lld\n", i,
                   static_cast<long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.key),
                   static_cast<unsigned long long>(s.count),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }

 private:
  struct Span {
    std::uint32_t name;
    std::int64_t parent;
    std::uint64_t key;
    std::uint64_t count;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::int64_t> open_;
};

/// RAII span; set `count` before scope exit to attach an exact count.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint32_t name, std::uint64_t key)
      : log_(log), span_(log.open(name, key)) {}
  ~ScopedSpan() { log_.close(span_, count); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t count = 0;

 private:
  SpanLog& log_;
  std::int64_t span_;
};

}  // namespace perfbench
