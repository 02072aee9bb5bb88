// Property tests for iolsim::LruList, the recency list behind the LRU
// replacement policies, the file cache's tenant partitions, the metadata
// cache and the checksum cache.
//
// The contract: for any stream of touch, find, erase and pop-oldest calls,
// LruList holds the same keys in the same oldest-to-newest order, with the
// same values, as a plain vector reference, and reports the same hits and
// insertions.

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/simos/lru.h"

namespace iolsim {
namespace {

// The reference: (key, value) pairs oldest first, found by linear search.
class ReferenceLru {
 public:
  // Touch-or-insert; returns the value slot and whether the key was new.
  std::pair<uint32_t*, bool> Touch(int key) {
    auto it = Locate(key);
    bool inserted = it == entries_.end();
    std::pair<int, uint32_t> entry{key, 0};
    if (!inserted) {
      entry = *it;
      entries_.erase(it);
    }
    entries_.push_back(entry);
    return {&entries_.back().second, inserted};
  }
  uint32_t* Find(int key) {
    if (Locate(key) == entries_.end()) {
      return nullptr;
    }
    return Touch(key).first;
  }
  bool Erase(int key) {
    auto it = Locate(key);
    if (it == entries_.end()) {
      return false;
    }
    entries_.erase(it);
    return true;
  }
  void PopOldest() { entries_.erase(entries_.begin()); }
  size_t size() const { return entries_.size(); }
  std::vector<int> Keys() const {
    std::vector<int> keys;
    for (const auto& [key, value] : entries_) {
      keys.push_back(key);
    }
    return keys;
  }

 private:
  std::vector<std::pair<int, uint32_t>>::iterator Locate(int key) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [key](const auto& e) { return e.first == key; });
  }

  std::vector<std::pair<int, uint32_t>> entries_;
};

template <class Lru>
std::vector<int> KeysOf(const Lru& lru) {
  return std::vector<int>(lru.begin(), lru.end());
}

// Drives `steps` random operations over keys [0, key_range) through both
// lists, checking every result and the full order after each step.
void RunStream(uint64_t seed, int key_range, int steps) {
  std::mt19937_64 rng(seed);
  LruList<int, uint32_t> lru;
  ReferenceLru ref;
  for (int step = 0; step < steps; ++step) {
    int key = static_cast<int>(rng() % key_range);
    uint32_t value = static_cast<uint32_t>(rng());
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {  // Touch-or-insert, then overwrite the value.
        auto [got, inserted] = lru.Touch(key);
        auto [want, want_inserted] = ref.Touch(key);
        ASSERT_EQ(inserted, want_inserted) << "step " << step;
        ASSERT_EQ(got, *want) << "step " << step;  // 0 when inserted.
        got = value;
        *want = value;
        break;
      }
      case 3:
      case 4: {  // Find-and-touch.
        uint32_t* got = lru.Find(key);
        uint32_t* want = ref.Find(key);
        ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
        if (got != nullptr) {
          ASSERT_EQ(*got, *want) << "step " << step;
        }
        break;
      }
      case 5:
      case 6:  // Erase.
        ASSERT_EQ(lru.Erase(key), ref.Erase(key)) << "step " << step;
        break;
      default:  // Pop the oldest.
        if (ref.size() > 0) {
          lru.PopOldest();
          ref.PopOldest();
        }
        break;
    }
    ASSERT_EQ(lru.size(), ref.size()) << "step " << step;
    ASSERT_EQ(lru.empty(), ref.size() == 0) << "step " << step;
    ASSERT_EQ(KeysOf(lru), ref.Keys()) << "step " << step;
  }
}

TEST(LruListTest, RandomStreamsMatchReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RunStream(seed, /*key_range=*/static_cast<int>(2 + seed % 30), /*steps=*/2000);
  }
}

TEST(LruListTest, SetLikeUseKeepsRecencyOrder) {
  LruList<int> set;
  for (int k : {5, 1, 9, 3}) {
    EXPECT_TRUE(set.Touch(k).second);
  }
  EXPECT_FALSE(set.Touch(1).second);  // Present: touched, not inserted.
  EXPECT_NE(set.Find(9), nullptr);
  EXPECT_EQ(set.Find(7), nullptr);
  EXPECT_EQ(KeysOf(set), (std::vector<int>{5, 3, 1, 9}));
  set.PopOldest();
  EXPECT_TRUE(set.Erase(1));
  EXPECT_FALSE(set.Erase(1));
  EXPECT_EQ(KeysOf(set), (std::vector<int>{3, 9}));
  set.clear();
  EXPECT_TRUE(set.empty());
}

// Lists in a growing vector are moved, not copied: their positions must
// survive the move (the file cache keeps one list per tenant this way).
TEST(LruListTest, ListsSurviveVectorGrowth) {
  std::vector<LruList<int>> lists;
  lists.emplace_back();
  for (int k = 0; k < 8; ++k) {
    lists[0].Touch(k);
  }
  for (int i = 0; i < 100; ++i) {
    lists.emplace_back();
  }
  lists[0].Find(0);
  lists[0].Erase(4);
  lists[0].PopOldest();
  EXPECT_EQ(KeysOf(lists[0]), (std::vector<int>{2, 3, 5, 6, 7, 0}));
}

}  // namespace
}  // namespace iolsim
