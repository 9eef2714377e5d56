// Traffic heat map: EWMA-decayed access counts per parent object and per
// child relation (DESIGN.md §16).
//
// This is the statistics feed for the online reclusterer (ROADMAP item 4,
// after Darmont's statistics-driven incremental reclustering line): it
// answers "which parents and which child relations are hot *right now*",
// not "which were ever touched".
//
// Cost model: the record path must be safe to leave on under full load.
// A touch is one relaxed fetch_add into a slot array sharded kHeatShards
// ways by thread (no CAS loops, no locks, no false sharing between
// concurrent writers); when disabled it is a single relaxed load. Huge
// parent ranges are stride-sampled so one full-database scan costs at most
// kMaxTouchesPerCall adds. All aggregation cost — summing shards, EWMA
// decay, ranking — is paid by the (rare) reader under a mutex.
//
// Decay: Decay(alpha) folds the counts accumulated since the previous
// decay into `ewma = ewma * alpha + delta`. The STATS path calls it at
// most once per kDecayIntervalUs, so heat is a half-life-weighted rate,
// and an object that stops being touched fades instead of staying hot
// forever. Heat reads add the not-yet-folded delta at full weight so a
// burst is visible before the next decay tick.
//
// Parent ids map to slots modulo kParentSlots: exact for databases with
// fewer than 64Ki parents (every configuration in this repo), a fold for
// larger ones — fine for a ranking signal.
//
// Memory: the parent-slot arrays (kHeatShards count arrays plus the
// consumed watermarks and EWMAs, ~5 MB) are anonymous demand-zero
// mappings, and nothing writes a slot that stays zero, so only the pages
// holding touched parents become resident: a 10k-parent database pays
// at most 80 KB per array, ~0.8 MB in all, not 5 MB.
#ifndef OBJREP_OBS_HEAT_MAP_H_
#define OBJREP_OBS_HEAT_MAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace objrep {

class HeatMap {
 public:
  static constexpr size_t kParentSlots = 65536;
  static constexpr size_t kRelSlots = 64;
  static constexpr size_t kHeatShards = 8;
  static constexpr uint64_t kMaxTouchesPerCall = 1024;
  static constexpr double kDefaultAlpha = 0.5;
  static constexpr uint64_t kDecayIntervalUs = 1000000;  // 1 s

  /// One process-wide tracker, like the metrics registry.
  static HeatMap& Global();

  /// One process-wide switch, like the tracker itself. It is static so
  /// that hot paths can test it without constructing Global(): a process
  /// that never enables the heat map never allocates its slot arrays.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records an access to parents [lo, lo + n). Ranges wider than
  /// kMaxTouchesPerCall are stride-sampled, each sampled slot charged the
  /// stride, so the total charged weight is always n.
  void TouchParents(uint64_t lo, uint64_t n);

  /// Records `n` subobject accesses against child relation `rel`.
  void TouchRel(uint32_t rel, uint64_t n = 1);

  /// Folds counts accumulated since the last decay into the EWMA:
  /// `ewma = ewma * alpha + delta`.
  void Decay(double alpha = kDefaultAlpha);

  /// Calls Decay(alpha) only if at least kDecayIntervalUs elapsed since
  /// the previous decay — the self-clocking hook for STATS/metrics paths
  /// that fire at arbitrary rates.
  void MaybeDecay(double alpha = kDefaultAlpha);

  struct ParentHeat {
    uint64_t parent = 0;
    double heat = 0.0;
  };
  struct RelHeat {
    uint32_t rel = 0;
    double heat = 0.0;
  };

  /// The k hottest parents, heat-descending (ties parent-ascending).
  /// Slots with zero heat are omitted.
  std::vector<ParentHeat> TopParents(size_t k) const;

  /// Heat of every child relation with nonzero heat, heat-descending.
  std::vector<RelHeat> RelHeats() const;

  /// Raw touch weight recorded since construction/Reset (monotonic).
  uint64_t touches() const {
    return touches_.load(std::memory_order_relaxed);
  }
  uint64_t decays() const { return decays_.load(std::memory_order_relaxed); }

  /// {"enabled":…,"touches":…,"decays":…,"top_parents":[…],"rels":[…]}
  std::string ToJson(size_t top_k) const;
  /// Global().ToJson(top_k) while heat is enabled; otherwise the same
  /// object, disabled and empty, without constructing the tracker.
  static std::string GlobalJson(size_t top_k);

  /// Drops all counts and EWMA state (tests / between driver runs).
  void Reset();

  HeatMap();
  HeatMap(const HeatMap&) = delete;
  HeatMap& operator=(const HeatMap&) = delete;

 private:
  size_t ThreadShard() const;
  /// Sums the write shards for `slot` of `counts` (relaxed reads).
  uint64_t SumParentSlot(size_t slot) const;
  uint64_t SumRelSlot(size_t slot) const;
  /// heat = ewma + not-yet-decayed delta. Caller holds mu_.
  double ParentHeatLocked(size_t slot) const;
  double RelHeatLocked(size_t slot) const;

  inline static std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> touches_{0};
  std::atomic<uint64_t> decays_{0};

  /// kParentSlots 8-byte slots of demand-zero memory (see the header
  /// comment), unmapped on destruction.
  struct UnmapParentSlots {
    void operator()(void* slots) const;
  };
  template <typename T>
  using ParentSlots = std::unique_ptr<T[], UnmapParentSlots>;
  template <typename T>
  static ParentSlots<T> MapParentSlots();

  /// Write side: kHeatShards independent slot arrays. Parent slots are
  /// plain words updated through relaxed std::atomic_ref.
  struct Shard {
    ParentSlots<uint64_t> parents;
    std::unique_ptr<std::atomic<uint64_t>[]> rels;
  };
  Shard shards_[kHeatShards];

  /// Read/decay side, all guarded by mu_.
  mutable std::mutex mu_;
  ParentSlots<uint64_t> parent_consumed_;  // folded-into-EWMA watermark
  ParentSlots<double> parent_ewma_;
  uint64_t rel_consumed_[kRelSlots] = {};
  double rel_ewma_[kRelSlots] = {};
  uint64_t last_decay_us_ = 0;
};

}  // namespace objrep

#endif  // OBJREP_OBS_HEAT_MAP_H_
