#include "obs/heat_map.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>

#include "obs/trace.h"
#include "util/macros.h"

namespace objrep {

namespace {

constexpr size_t kParentSlotBytes = HeatMap::kParentSlots * sizeof(uint64_t);

uint64_t LoadSlot(uint64_t& slot) {
  return std::atomic_ref<uint64_t>(slot).load(std::memory_order_relaxed);
}

}  // namespace

void HeatMap::UnmapParentSlots::operator()(void* slots) const {
  munmap(slots, kParentSlotBytes);
}

template <typename T>
HeatMap::ParentSlots<T> HeatMap::MapParentSlots() {
  static_assert(sizeof(T) == sizeof(uint64_t));
  // Anonymous private memory is zero-filled on first touch, so the slots
  // start at 0 without the constructor writing (and making resident)
  // every page. Reads of untouched pages map the shared zero page.
  void* slots = mmap(nullptr, kParentSlotBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  OBJREP_CHECK_MSG(slots != MAP_FAILED, "heat map slot mapping failed");
  return ParentSlots<T>(static_cast<T*>(slots));
}

HeatMap& HeatMap::Global() {
  static HeatMap* h = new HeatMap();
  return *h;
}

HeatMap::HeatMap()
    : parent_consumed_(MapParentSlots<uint64_t>()),
      parent_ewma_(MapParentSlots<double>()) {
  for (Shard& s : shards_) {
    s.parents = MapParentSlots<uint64_t>();
    s.rels.reset(new std::atomic<uint64_t>[kRelSlots]());
  }
}

size_t HeatMap::ThreadShard() const {
  // Round-robin shard assignment at first touch per thread: spreads
  // concurrent writers without hashing, stable for the thread's life.
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kHeatShards;
  return shard;
}

void HeatMap::TouchParents(uint64_t lo, uint64_t n) {
  if (!enabled() || n == 0) return;
  Shard& s = shards_[ThreadShard()];
  const uint64_t stride = n <= kMaxTouchesPerCall
                              ? 1
                              : (n + kMaxTouchesPerCall - 1) /
                                    kMaxTouchesPerCall;
  for (uint64_t p = lo; p < lo + n; p += stride) {
    const uint64_t weight = std::min(stride, lo + n - p);
    std::atomic_ref<uint64_t>(s.parents[p % kParentSlots])
        .fetch_add(weight, std::memory_order_relaxed);
  }
  touches_.fetch_add(n, std::memory_order_relaxed);
}

void HeatMap::TouchRel(uint32_t rel, uint64_t n) {
  if (!enabled() || n == 0) return;
  shards_[ThreadShard()].rels[rel % kRelSlots].fetch_add(
      n, std::memory_order_relaxed);
}

uint64_t HeatMap::SumParentSlot(size_t slot) const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += LoadSlot(s.parents[slot]);
  return total;
}

uint64_t HeatMap::SumRelSlot(size_t slot) const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.rels[slot].load(std::memory_order_relaxed);
  }
  return total;
}

double HeatMap::ParentHeatLocked(size_t slot) const {
  return parent_ewma_[slot] +
         static_cast<double>(SumParentSlot(slot) - parent_consumed_[slot]);
}

double HeatMap::RelHeatLocked(size_t slot) const {
  return rel_ewma_[slot] +
         static_cast<double>(SumRelSlot(slot) - rel_consumed_[slot]);
}

void HeatMap::Decay(double alpha) {
  std::lock_guard<std::mutex> guard(mu_);
  for (size_t i = 0; i < kParentSlots; ++i) {
    const uint64_t total = SumParentSlot(i);
    const uint64_t delta = total - parent_consumed_[i];
    if (delta == 0 && parent_ewma_[i] == 0.0) continue;
    parent_consumed_[i] = total;
    parent_ewma_[i] = parent_ewma_[i] * alpha + static_cast<double>(delta);
    if (parent_ewma_[i] < 1e-6) parent_ewma_[i] = 0.0;
  }
  for (size_t i = 0; i < kRelSlots; ++i) {
    const uint64_t total = SumRelSlot(i);
    const uint64_t delta = total - rel_consumed_[i];
    rel_consumed_[i] = total;
    rel_ewma_[i] = rel_ewma_[i] * alpha + static_cast<double>(delta);
    if (rel_ewma_[i] < 1e-6) rel_ewma_[i] = 0.0;
  }
  last_decay_us_ = Trace::NowMicros();
  decays_.fetch_add(1, std::memory_order_relaxed);
}

void HeatMap::MaybeDecay(double alpha) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (Trace::NowMicros() - last_decay_us_ < kDecayIntervalUs) return;
  }
  Decay(alpha);
}

std::vector<HeatMap::ParentHeat> HeatMap::TopParents(size_t k) const {
  std::vector<ParentHeat> out;
  std::lock_guard<std::mutex> guard(mu_);
  for (size_t i = 0; i < kParentSlots; ++i) {
    const double heat = ParentHeatLocked(i);
    if (heat > 0.0) out.push_back(ParentHeat{i, heat});
  }
  std::sort(out.begin(), out.end(),
            [](const ParentHeat& a, const ParentHeat& b) {
              if (a.heat != b.heat) return a.heat > b.heat;
              return a.parent < b.parent;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<HeatMap::RelHeat> HeatMap::RelHeats() const {
  std::vector<RelHeat> out;
  std::lock_guard<std::mutex> guard(mu_);
  for (size_t i = 0; i < kRelSlots; ++i) {
    const double heat = RelHeatLocked(i);
    if (heat > 0.0) out.push_back(RelHeat{static_cast<uint32_t>(i), heat});
  }
  std::sort(out.begin(), out.end(), [](const RelHeat& a, const RelHeat& b) {
    if (a.heat != b.heat) return a.heat > b.heat;
    return a.rel < b.rel;
  });
  return out;
}

std::string HeatMap::ToJson(size_t top_k) const {
  char num[64];
  std::string out = "{\"enabled\":";
  out += enabled() ? "true" : "false";
  std::snprintf(num, sizeof(num), ",\"touches\":%llu,\"decays\":%llu",
                static_cast<unsigned long long>(touches()),
                static_cast<unsigned long long>(decays()));
  out += num;
  out += ",\"top_parents\":[";
  bool first = true;
  for (const ParentHeat& p : TopParents(top_k)) {
    if (!first) out += ",";
    first = false;
    std::snprintf(num, sizeof(num), "{\"parent\":%llu,\"heat\":%.3f}",
                  static_cast<unsigned long long>(p.parent), p.heat);
    out += num;
  }
  out += "],\"rels\":[";
  first = true;
  for (const RelHeat& r : RelHeats()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(num, sizeof(num), "{\"rel\":%u,\"heat\":%.3f}", r.rel,
                  r.heat);
    out += num;
  }
  out += "]}";
  return out;
}

std::string HeatMap::GlobalJson(size_t top_k) {
  if (enabled()) return Global().ToJson(top_k);
  return "{\"enabled\":false,\"touches\":0,\"decays\":0,"
         "\"top_parents\":[],\"rels\":[]}";
}

void HeatMap::Reset() {
  std::lock_guard<std::mutex> guard(mu_);
  // Parent slots are cleared only where nonzero: writing a zero into an
  // untouched page would make it resident for nothing.
  for (Shard& s : shards_) {
    for (size_t i = 0; i < kParentSlots; ++i) {
      if (LoadSlot(s.parents[i]) != 0) {
        std::atomic_ref<uint64_t>(s.parents[i])
            .store(0, std::memory_order_relaxed);
      }
    }
    for (size_t i = 0; i < kRelSlots; ++i) {
      s.rels[i].store(0, std::memory_order_relaxed);
    }
  }
  for (size_t i = 0; i < kParentSlots; ++i) {
    if (parent_consumed_[i] != 0) parent_consumed_[i] = 0;
    if (parent_ewma_[i] != 0.0) parent_ewma_[i] = 0.0;
  }
  for (size_t i = 0; i < kRelSlots; ++i) {
    rel_consumed_[i] = 0;
    rel_ewma_[i] = 0.0;
  }
  touches_.store(0, std::memory_order_relaxed);
  decays_.store(0, std::memory_order_relaxed);
  last_decay_us_ = 0;
}

}  // namespace objrep
