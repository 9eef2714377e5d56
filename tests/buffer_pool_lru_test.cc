// Differential test of the buffer pool's replacement order (DESIGN.md §17).
// Seeded random single-threaded operation sequences drive a real pool and
// a reference model that picks every victim by a full scan for the
// unpinned page with the smallest unpin stamp — the seed's exact LRU.
// After every step the pool's resident page set (probed with
// TryFetchResident, which neither restamps nor counts) and its eviction
// count must equal the model's. The operations cover every path that pins,
// restamps, admits or drops a frame: FetchPage, NewPage and held pins,
// no-restamp peeks, FreePage, InvalidateAllClean, FlushAll, WAL
// transactions (no-steal pins; commit and abort), FetchPages batches, an
// injected write-back failure, and NoSpace with every frame pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/wal.h"
#include "util/random.h"

namespace objrep {
namespace {

/// What the pool should hold, decided the slow, obvious way.
struct LruModel {
  struct Entry {
    uint64_t stamp = 0;  // clock value of the last restamping unpin
    int pins = 0;
    bool dirty = false;
  };

  /// The page a miss evicts now, or kInvalidPageId if every resident page
  /// is pinned. Restamps draw from one counter, so stamps never tie.
  PageId Victim() const {
    PageId victim = kInvalidPageId;
    uint64_t oldest = UINT64_MAX;
    for (const auto& [pid, e] : resident) {
      if (e.pins == 0 && e.stamp < oldest) {
        oldest = e.stamp;
        victim = pid;
      }
    }
    return victim;
  }

  uint32_t capacity = 0;
  uint64_t clock = 0;
  uint64_t evictions = 0;
  std::map<PageId, Entry> resident;
};

class LruDriver {
 public:
  LruDriver(uint32_t capacity, uint64_t seed)
      : pool_(&disk_, capacity), rng_(seed) {
    pool_.AttachWal(&wal_);
    model_.capacity = capacity;
    for (uint32_t i = 0; i < 3 * capacity; ++i) {
      universe_.push_back(disk_.AllocatePage());
    }
  }

  ~LruDriver() {
    if (in_txn_) EndTxn(/*commit=*/false);
    held_.clear();  // guards release before the pool goes away
  }

  /// One random operation, then the full comparison.
  void Step() {
    const uint64_t op = rng_.Uniform(100);
    if (in_txn_) {
      if (op < 10) {
        EndTxn(rng_.Uniform(2) == 0);
      } else if (op < 50) {
        Fetch(RandomPage(), /*hold=*/rng_.Uniform(2) == 0);
      } else if (op < 58) {
        NewPage(/*hold=*/rng_.Uniform(2) == 0);
      } else if (op < 73) {
        MarkDirty();
      } else if (op < 88) {
        ReleaseRandom();
      } else {
        Peek(RandomPage(), /*hold=*/rng_.Uniform(3) == 0);
      }
    } else if (op < 28) {
      Fetch(RandomPage(), /*hold=*/rng_.Uniform(2) == 0);
    } else if (op < 36) {
      Peek(RandomPage(), /*hold=*/rng_.Uniform(3) == 0);
    } else if (op < 41) {
      NewPage(/*hold=*/rng_.Uniform(2) == 0);
    } else if (op < 50) {
      MarkDirty();
    } else if (op < 63) {
      ReleaseRandom();
    } else if (op < 73) {
      FreePage(RandomPage());
    } else if (op < 74) {
      InvalidateAllClean();
    } else if (op < 76) {
      FlushAll();
    } else if (op < 79) {
      BeginTxn();
    } else if (op < 88) {
      FetchBatch();
    } else if (op < 92) {
      FailedWriteBack();
    } else if (op < 93) {
      AllPinnedThenOldestUnpinGoesFirst();
    } else {
      Fetch(RandomPage(), /*hold=*/false);
    }
    // Keep a bounded working set of pins so most misses can evict.
    while (held_.size() > model_.capacity / 2 + 1) ReleaseRandom();
    Check();
  }

  /// The pool holds exactly the model's pages and has evicted as often.
  void Check() {
    for (PageId pid : universe_) {
      PageGuard g;
      const bool resident = pool_.TryFetchResident(pid, &g);
      ASSERT_EQ(resident, model_.resident.count(pid) != 0)
          << "page " << pid << " after step " << steps_;
    }
    ASSERT_EQ(pool_.evictions(), model_.evictions) << "step " << steps_;
    ++steps_;
  }

  BufferPool& pool() { return pool_; }

 private:
  struct Held {
    PageGuard guard;
    PageId pid;
    bool restamp;
  };

  PageId RandomPage() { return universe_[rng_.Uniform(universe_.size())]; }

  /// A page of the universe that is not resident, if there is one.
  PageId RandomAbsentPage() {
    std::vector<PageId> absent;
    for (PageId pid : universe_) {
      if (model_.resident.count(pid) == 0) absent.push_back(pid);
    }
    return absent.empty() ? kInvalidPageId
                          : absent[rng_.Uniform(absent.size())];
  }

  /// Model side of a frame allocation for `pid`: free frame, else the LRU
  /// victim. Returns the status class the pool must report.
  enum class Admit { kOk, kNoSpace, kWriteFault };
  Admit ModelAdmit(PageId pid, bool dirty) {
    if (model_.resident.size() >= model_.capacity) {
      const PageId victim = model_.Victim();
      if (victim == kInvalidPageId) return Admit::kNoSpace;
      if (model_.resident[victim].dirty && write_faults_) {
        return Admit::kWriteFault;
      }
      model_.resident.erase(victim);
      ++model_.evictions;
    }
    LruModel::Entry& e = model_.resident[pid];
    e.pins = 1;
    e.dirty = dirty;
    return Admit::kOk;
  }

  static void ExpectAdmit(Admit want, const Status& s) {
    switch (want) {
      case Admit::kOk:
        EXPECT_TRUE(s.ok()) << s.ToString();
        break;
      case Admit::kNoSpace:
        EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
        break;
      case Admit::kWriteFault:
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        break;
    }
  }

  void Keep(PageGuard g, PageId pid, bool restamp, bool hold) {
    held_.push_back(Held{std::move(g), pid, restamp});
    if (!hold) Release(held_.size() - 1);
  }

  void Release(size_t i) {
    held_[i].guard.Release();
    LruModel::Entry& e = model_.resident.at(held_[i].pid);
    --e.pins;
    if (held_[i].restamp) e.stamp = ++model_.clock;
    held_[i] = std::move(held_.back());
    held_.pop_back();
  }

  void ReleaseRandom() {
    if (!held_.empty()) Release(rng_.Uniform(held_.size()));
  }

  void Fetch(PageId pid, bool hold) {
    PageGuard g;
    Status s = pool_.FetchPage(pid, &g);
    auto it = model_.resident.find(pid);
    if (it != model_.resident.end()) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++it->second.pins;
    } else {
      const Admit want = ModelAdmit(pid, /*dirty=*/false);
      ExpectAdmit(want, s);
      if (want != Admit::kOk) return;
    }
    Keep(std::move(g), pid, /*restamp=*/true, hold);
  }

  void Peek(PageId pid, bool hold) {
    PageGuard g;
    const bool hit = pool_.TryFetchResident(pid, &g);
    ASSERT_EQ(hit, model_.resident.count(pid) != 0);
    if (!hit) return;
    ++model_.resident[pid].pins;
    Keep(std::move(g), pid, /*restamp=*/false, hold);
  }

  void NewPage(bool hold) {
    PageGuard g;
    Status s = pool_.NewPage(&g);
    // The pool allocates the disk page first, so the model admits the id
    // the pool reports (or the one a failed call handed back).
    const PageId pid = s.ok() ? g.page_id() : kInvalidPageId;
    if (!s.ok()) {
      // A failure must be the model's failure for any fresh page id.
      const PageId probe = UINT32_MAX - 1;
      const Admit want = ModelAdmit(probe, /*dirty=*/true);
      ASSERT_NE(want, Admit::kOk) << s.ToString();
      ExpectAdmit(want, s);
      return;
    }
    ASSERT_EQ(model_.resident.count(pid), 0u);
    ASSERT_EQ(ModelAdmit(pid, /*dirty=*/true), Admit::kOk);
    CaptureIfInTxn(pid);
    if (std::find(universe_.begin(), universe_.end(), pid) ==
        universe_.end()) {
      universe_.push_back(pid);
    }
    Keep(std::move(g), pid, /*restamp=*/true, hold);
  }

  void MarkDirty() {
    if (held_.empty()) return;
    Held& h = held_[rng_.Uniform(held_.size())];
    h.guard.MarkDirty();
    model_.resident.at(h.pid).dirty = true;
    CaptureIfInTxn(h.pid);
  }

  /// Inside a transaction the first dirtying of a page takes the no-steal
  /// pin, held until commit or abort.
  void CaptureIfInTxn(PageId pid) {
    if (!in_txn_) return;
    if (std::find(txn_pages_.begin(), txn_pages_.end(), pid) !=
        txn_pages_.end()) {
      return;
    }
    txn_pages_.push_back(pid);
    ++model_.resident.at(pid).pins;
  }

  void FreePage(PageId pid) {
    if (universe_.size() <= 2 * model_.capacity) return;  // keep misses
    auto it = model_.resident.find(pid);
    const bool want = it == model_.resident.end() || it->second.pins == 0;
    ASSERT_EQ(pool_.FreePage(pid), want);
    if (!want) return;
    if (it != model_.resident.end()) model_.resident.erase(it);
    universe_.erase(std::find(universe_.begin(), universe_.end(), pid));
  }

  void InvalidateAllClean() {
    pool_.InvalidateAllClean();
    for (auto it = model_.resident.begin(); it != model_.resident.end();) {
      if (it->second.pins == 0 && !it->second.dirty) {
        it = model_.resident.erase(it);
      } else {
        ++it;
      }
    }
  }

  void FlushAll() {
    ASSERT_TRUE(pool_.FlushAll().ok());
    for (auto& [pid, e] : model_.resident) e.dirty = false;
  }

  void BeginTxn() {
    ASSERT_TRUE(pool_.BeginTxn().ok());
    in_txn_ = true;
    txn_pages_.clear();
  }

  /// Releases every guard (abort requires the no-steal pin to be the last
  /// one), then commits — write-through, pages stay resident and clean —
  /// or aborts, dropping every page the transaction dirtied.
  void EndTxn(bool commit) {
    while (!held_.empty()) Release(held_.size() - 1);
    if (commit) {
      ASSERT_TRUE(pool_.CommitTxn().ok());
      for (PageId pid : txn_pages_) {
        LruModel::Entry& e = model_.resident.at(pid);
        e.dirty = false;
        --e.pins;  // the no-steal pin leaves without a restamp
      }
    } else {
      pool_.AbortTxn();
      for (PageId pid : txn_pages_) model_.resident.erase(pid);
    }
    in_txn_ = false;
    txn_pages_.clear();
  }

  /// A FetchPages batch of up to 8 ids (duplicates allowed). Every hit is
  /// pinned before any victim is chosen, and the distinct misses take free
  /// frames first, then the oldest unpinned pages. Batches that would run
  /// out of frames are skipped: on failure the pool releases the hit pins
  /// in vector-destruction order, which the model does not pin down.
  void FetchBatch() {
    const size_t n = 1 + rng_.Uniform(std::min<uint32_t>(8, model_.capacity));
    std::vector<PageId> pids;
    for (size_t i = 0; i < n; ++i) {
      pids.push_back(rng_.Uniform(4) == 0 && !pids.empty()
                         ? pids[rng_.Uniform(pids.size())]
                         : RandomPage());
    }
    std::vector<PageId> misses;
    std::map<PageId, int> batch_pins;
    for (PageId pid : pids) {
      ++batch_pins[pid];
      if (model_.resident.count(pid) == 0 &&
          std::find(misses.begin(), misses.end(), pid) == misses.end()) {
        misses.push_back(pid);
      }
    }
    size_t evictable = model_.capacity - model_.resident.size();
    for (const auto& [pid, e] : model_.resident) {
      if (e.pins == 0 && batch_pins.count(pid) == 0) ++evictable;
    }
    if (misses.size() > evictable) return;

    std::vector<PageGuard> guards;
    Status s = pool_.FetchPages(pids.data(), pids.size(), &guards);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (PageId pid : pids) {
      if (model_.resident.count(pid) != 0) ++model_.resident[pid].pins;
    }
    for (PageId pid : misses) {
      ASSERT_EQ(ModelAdmit(pid, /*dirty=*/false), Admit::kOk);
      model_.resident[pid].pins = batch_pins[pid];
    }
    // Release in a random order; each release restamps.
    std::vector<size_t> order(guards.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.Uniform(i)]);
    }
    for (size_t i : order) {
      held_.push_back(Held{std::move(guards[i]), pids[i], true});
      Release(held_.size() - 1);
    }
  }

  /// Arms write faults for one miss: a dirty victim's write-back fails,
  /// the miss returns the error, and the victim stays resident and dirty.
  void FailedWriteBack() {
    const PageId pid = RandomAbsentPage();
    if (pid == kInvalidPageId) return;
    disk_.fault_injector()->Configure(/*seed=*/steps_, 0.0, 1.0);
    write_faults_ = true;
    Fetch(pid, /*hold=*/false);
    disk_.fault_injector()->Reset();
    write_faults_ = false;
  }

  /// Pins every frame, checks that a miss fails with NoSpace, then unpins
  /// two pages: the next miss must evict exactly the one unpinned first.
  void AllPinnedThenOldestUnpinGoesFirst() {
    std::vector<PageId> unpinned;
    for (const auto& [pid, e] : model_.resident) {
      if (e.pins == 0) unpinned.push_back(pid);
    }
    for (PageId pid : unpinned) Fetch(pid, /*hold=*/true);
    while (model_.resident.size() < model_.capacity) {
      const PageId pid = RandomAbsentPage();
      if (pid == kInvalidPageId) return;
      Fetch(pid, /*hold=*/true);
    }
    const PageId absent = RandomAbsentPage();
    if (absent == kInvalidPageId) return;
    PageGuard g;
    EXPECT_TRUE(pool_.FetchPage(absent, &g).IsNoSpace());

    // Two pages whose only pin is one held guard.
    std::vector<size_t> sole;
    for (size_t i = 0; i < held_.size(); ++i) {
      if (held_[i].restamp && model_.resident.at(held_[i].pid).pins == 1) {
        sole.push_back(i);
      }
    }
    if (sole.size() < 2) return;
    const size_t a = sole[rng_.Uniform(sole.size())];
    size_t b = sole[rng_.Uniform(sole.size())];
    while (b == a) b = sole[rng_.Uniform(sole.size())];
    const PageId first = held_[a].pid;
    const PageId second = held_[b].pid;
    held_[a].guard.Release();
    held_[b].guard.Release();
    for (PageId pid : {first, second}) {
      LruModel::Entry& e = model_.resident.at(pid);
      e.pins = 0;
      e.stamp = ++model_.clock;
    }
    held_.erase(held_.begin() + std::max(a, b));
    held_.erase(held_.begin() + std::min(a, b));

    Fetch(absent, /*hold=*/false);
    EXPECT_EQ(model_.resident.count(first), 0u);
    PageGuard peek;
    EXPECT_FALSE(pool_.TryFetchResident(first, &peek));
    EXPECT_TRUE(pool_.TryFetchResident(second, &peek));
  }

  DiskManager disk_;
  Wal wal_{&disk_};
  BufferPool pool_;
  LruModel model_;
  Rng rng_;
  std::vector<PageId> universe_;  // allocated page ids the ops draw from
  std::vector<Held> held_;
  bool in_txn_ = false;
  std::vector<PageId> txn_pages_;  // dirtied (and no-steal pinned) in txn
  bool write_faults_ = false;
  uint64_t steps_ = 0;
};

TEST(BufferPoolLruTest, VictimOrderMatchesFullScanModel) {
  uint64_t seed = 1;
  for (uint32_t capacity : {4u, 5u, 8u, 13u, 32u, 64u}) {
    for (int round = 0; round < 4; ++round, ++seed) {
      LruDriver d(capacity, seed);
      for (int i = 0; i < 2500; ++i) {
        d.Step();
        if (::testing::Test::HasFatalFailure()) {
          FAIL() << "capacity " << capacity << " seed " << seed;
        }
      }
      EXPECT_GT(d.pool().evictions(), 0u);
    }
  }
}

TEST(BufferPoolLruTest, NoSpaceThenNextMissEvictsTheFirstUnpinned) {
  DiskManager disk;
  std::vector<PageId> pids;
  for (int i = 0; i < 6; ++i) pids.push_back(disk.AllocatePage());
  BufferPool pool(&disk, 4);
  std::vector<PageGuard> pins(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.FetchPage(pids[i], &pins[i]).ok());
  }
  PageGuard g;
  EXPECT_TRUE(pool.FetchPage(pids[4], &g).IsNoSpace());
  EXPECT_TRUE(pool.NewPage(&g).IsNoSpace());
  // Unpin 2, then 0: page 2 is now the least recently used.
  pins[2].Release();
  pins[0].Release();
  ASSERT_TRUE(pool.FetchPage(pids[4], &g).ok());
  g.Release();
  PageGuard peek;
  EXPECT_FALSE(pool.TryFetchResident(pids[2], &peek));
  EXPECT_TRUE(pool.TryFetchResident(pids[0], &peek));
  peek.Release();
  // Then page 0 (older than page 4's fresh stamp).
  ASSERT_TRUE(pool.FetchPage(pids[5], &g).ok());
  EXPECT_FALSE(pool.TryFetchResident(pids[0], &peek));
  EXPECT_TRUE(pool.TryFetchResident(pids[4], &peek));
}

TEST(BufferPoolLruTest, VictimHeapStaysWithinTwiceCapacity) {
  // Frees, invalidations and aborts drop frames without popping their
  // heap entries; 100k mixed operations must not let them pile up.
  constexpr uint32_t kCapacity = 8;
  LruDriver d(kCapacity, /*seed=*/99);
  size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    d.Step();
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << i;
    peak = std::max(peak, d.pool().victim_heap_size());
  }
  EXPECT_LE(peak, 2u * kCapacity);
  EXPECT_GT(d.pool().evictions(), 0u);
}

TEST(BufferPoolLruTest, FreePageChurnDoesNotGrowTheVictimHeap) {
  // The free list hands the same frame back after every FreePage, so each
  // round admits a new tenancy of one frame without any pop; the entries
  // of the earlier tenancies must still be recognized as stale.
  DiskManager disk;
  BufferPool pool(&disk, 4);
  for (int i = 0; i < 1000; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.NewPage(&g).ok());
    const PageId pid = g.page_id();
    g.Release();
    ASSERT_TRUE(pool.FreePage(pid));
    ASSERT_LE(pool.victim_heap_size(), 8u) << "round " << i;
  }
}

}  // namespace
}  // namespace objrep
