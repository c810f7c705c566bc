#include "util/interner.h"

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace rulelink::util {
namespace {

TEST(StringInternerTest, AssignsDenseFirstOccurrenceIds) {
  StringInterner interner;
  EXPECT_TRUE(interner.empty());
  EXPECT_EQ(interner.Intern("alpha"), 0u);
  EXPECT_EQ(interner.Intern("beta"), 1u);
  EXPECT_EQ(interner.Intern("gamma"), 2u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.View(0), "alpha");
  EXPECT_EQ(interner.View(1), "beta");
  EXPECT_EQ(interner.View(2), "gamma");
}

TEST(StringInternerTest, DuplicateInternReturnsSameId) {
  StringInterner interner;
  const SymbolId a = interner.Intern("dup");
  EXPECT_EQ(interner.Intern("dup"), a);
  EXPECT_EQ(interner.Intern(std::string("dup")), a);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInternerTest, EmptyStringIsAValidSymbol) {
  StringInterner interner;
  const SymbolId empty = interner.Intern("");
  EXPECT_EQ(empty, 0u);
  EXPECT_EQ(interner.Intern(""), empty);
  EXPECT_EQ(interner.View(empty), "");
  EXPECT_EQ(interner.Find(""), empty);
  // The empty symbol must not collide with anything else.
  EXPECT_NE(interner.Intern("x"), empty);
}

TEST(StringInternerTest, FindNeverInterns) {
  StringInterner interner;
  EXPECT_EQ(interner.Find("missing"), kInvalidSymbolId);
  EXPECT_TRUE(interner.empty());
  interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), 0u);
  EXPECT_EQ(interner.Find("missing"), kInvalidSymbolId);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInternerTest, ViewsStayValidAcrossGrowth) {
  // Views point into arena blocks that are never reallocated, so handing
  // out a view and then interning thousands more symbols must not
  // invalidate it.
  StringInterner interner;
  const std::string_view first = interner.View(interner.Intern("anchor"));
  const char* data_before = first.data();
  for (int i = 0; i < 50000; ++i) {
    interner.Intern("sym-" + std::to_string(i));
  }
  EXPECT_EQ(first.data(), data_before);
  EXPECT_EQ(first, "anchor");
  EXPECT_EQ(interner.View(0), "anchor");
}

TEST(StringInternerTest, CopyPreservesIdsAndOwnsItsArena) {
  StringInterner interner;
  interner.Intern("a");
  interner.Intern("bb");
  interner.Intern("ccc");
  const StringInterner copy(interner);
  ASSERT_EQ(copy.size(), 3u);
  for (SymbolId id = 0; id < 3; ++id) {
    EXPECT_EQ(copy.View(id), interner.View(id));
    // Deep copy: the bytes live in the copy's own arena.
    EXPECT_NE(copy.View(id).data(), interner.View(id).data());
  }
  EXPECT_EQ(copy.Find("bb"), 1u);
}

TEST(StringInternerTest, MoveKeepsViewsValid) {
  StringInterner interner;
  const SymbolId id = interner.Intern("survivor");
  const std::string_view view = interner.View(id);
  StringInterner moved(std::move(interner));
  EXPECT_EQ(moved.View(id), "survivor");
  EXPECT_EQ(moved.View(id).data(), view.data());
  EXPECT_EQ(moved.Find("survivor"), id);
}

TEST(StringInternerTest, MillionSymbolStress) {
  StringInterner interner;
  interner.Reserve(1000000);
  for (std::size_t i = 0; i < 1000000; ++i) {
    ASSERT_EQ(interner.Intern("k" + std::to_string(i)), i);
  }
  EXPECT_EQ(interner.size(), 1000000u);
  EXPECT_GT(interner.memory_bytes(), 0u);
  // Spot-check id stability and lookup at the extremes and in the middle.
  EXPECT_EQ(interner.View(0), "k0");
  EXPECT_EQ(interner.View(499999), "k499999");
  EXPECT_EQ(interner.View(999999), "k999999");
  EXPECT_EQ(interner.Find("k777777"), 777777u);
  // Re-interning is idempotent even at this size.
  EXPECT_EQ(interner.Intern("k31337"), 31337u);
  EXPECT_EQ(interner.size(), 1000000u);
}

TEST(StringInternerTest, SnapshotReadersRaceNothingWhileWriterInterns) {
  // The concurrency contract: a Snapshot taken at symbol count N can be
  // read from any number of threads while the owning interner keeps
  // interning on another thread. Run under TSan this test proves the
  // snapshot shares no mutable state with the growing interner.
  StringInterner interner;
  constexpr std::size_t kInitial = 4096;
  for (std::size_t i = 0; i < kInitial; ++i) {
    interner.Intern("base-" + std::to_string(i));
  }
  const StringInterner::Snapshot snapshot = interner.MakeSnapshot();
  ASSERT_EQ(snapshot.size(), kInitial);

  std::vector<std::thread> readers;
  std::vector<std::size_t> checksums(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&snapshot, &checksums, t] {
      std::size_t sum = 0;
      for (int pass = 0; pass < 50; ++pass) {
        for (SymbolId id = 0; id < snapshot.size(); ++id) {
          sum += snapshot.View(id).size();
        }
      }
      checksums[t] = sum;
    });
  }
  // Writer thread grows the interner concurrently with the readers.
  std::thread writer([&interner] {
    for (std::size_t i = 0; i < 20000; ++i) {
      interner.Intern("grow-" + std::to_string(i));
    }
  });
  for (std::thread& reader : readers) reader.join();
  writer.join();

  for (std::size_t t = 1; t < checksums.size(); ++t) {
    EXPECT_EQ(checksums[t], checksums[0]);
  }
  EXPECT_EQ(interner.size(), kInitial + 20000);
  // The snapshot still sees exactly the prefix it was taken at.
  EXPECT_EQ(snapshot.size(), kInitial);
  EXPECT_EQ(snapshot.View(0), "base-0");
}

// The map-based interner the flat table replaced, kept as the oracle:
// ids in first-occurrence order, kInvalidSymbolId for a string never
// interned.
class MapInterner {
 public:
  SymbolId Intern(const std::string& s) {
    const auto [it, added] =
        ids_.emplace(s, static_cast<SymbolId>(strings_.size()));
    if (added) strings_.push_back(s);
    return it->second;
  }
  SymbolId Find(const std::string& s) const {
    const auto it = ids_.find(s);
    return it == ids_.end() ? kInvalidSymbolId : it->second;
  }
  const std::string& View(SymbolId id) const { return strings_[id]; }
  std::size_t size() const { return strings_.size(); }

 private:
  std::unordered_map<std::string, SymbolId> ids_;
  std::vector<std::string> strings_;
};

// Strings a byte hash and a tag compare can get wrong: the empty string,
// embedded NUL bytes, strings equal in their first 8 bytes (one hash word)
// or 16, long strings differing only in their last byte, and a seeded
// bulk over a four-byte alphabet with NUL and space, so short strings
// repeat.
std::vector<std::string> AwkwardStrings(std::mt19937_64* rng) {
  using namespace std::string_literals;
  std::vector<std::string> out = {""s,        "\0"s,       "\0\0"s,
                                  "a\0b"s,    "a\0c"s,     "\0a"s,
                                  "abcdefgh"s, "abcdefgh\0"s};
  for (char c = 'A'; c <= 'Z'; ++c) {
    out.push_back("PARTNUMB" + std::string(1, c));           // byte 8
    out.push_back("PARTNUMBER-12345" + std::string(1, c));   // byte 16
    out.push_back("PARTNUMB" + std::string(1, c) + "-tail");  // mid-word
  }
  for (const std::size_t length : {63u, 64u, 65u, 300u, 5000u}) {
    for (char c = 'x'; c <= 'z'; ++c) {
      out.push_back(std::string(length - 1, 'L') + c);
    }
  }
  constexpr char kAlphabet[] = {'a', 'b', '\0', ' '};
  for (int i = 0; i < 6000; ++i) {
    std::string s((*rng)() % 12, ' ');
    for (char& c : s) c = kAlphabet[(*rng)() % 4];
    out.push_back(std::move(s));
  }
  return out;
}

// Every id, view and lookup of `interner` agrees with `oracle`.
void ExpectSameAsOracle(const StringInterner& interner,
                        const MapInterner& oracle) {
  ASSERT_EQ(interner.size(), oracle.size());
  for (SymbolId id = 0; id < oracle.size(); ++id) {
    const std::string& s = oracle.View(id);
    ASSERT_EQ(interner.View(id), s) << "id " << id;
    ASSERT_EQ(interner.Find(s), id);
    ASSERT_EQ(interner.Find(s, StringInterner::Hash(s)), id);
  }
}

TEST(StringInternerTest, MatchesAMapOracle) {
  std::mt19937_64 rng(1019);
  const std::vector<std::string> strings = AwkwardStrings(&rng);
  StringInterner interner;
  MapInterner oracle;
  // A seeded walk over the strings, each interned or looked up up to
  // several times, alternating the hashing and the hash-taking forms.
  for (int step = 0; step < 40000; ++step) {
    const std::string& s = strings[rng() % strings.size()];
    const std::uint64_t hash = StringInterner::Hash(s);
    switch (rng() % 4) {
      case 0:
        ASSERT_EQ(interner.Find(s), oracle.Find(s)) << "step " << step;
        ASSERT_EQ(interner.Find(s, hash), oracle.Find(s));
        break;
      case 1:
        ASSERT_EQ(interner.Intern(s, hash), oracle.Intern(s))
            << "step " << step;
        break;
      default:
        ASSERT_EQ(interner.Intern(s), oracle.Intern(s)) << "step " << step;
        break;
    }
  }
  // From 16 slots, at most half full, 1 000 symbols take six growths.
  ASSERT_GT(oracle.size(), 1000u);
  ExpectSameAsOracle(interner, oracle);
  EXPECT_EQ(interner.Find("never interned"), kInvalidSymbolId);

  // A copy keeps the ids in an arena of its own; a move keeps the very
  // views. Both go on interning in step with the oracle.
  std::vector<std::string_view> views;
  for (SymbolId id = 0; id < interner.size(); ++id) {
    views.push_back(interner.View(id));
  }
  StringInterner copy(interner);
  ExpectSameAsOracle(copy, oracle);
  EXPECT_NE(copy.View(1).data(), views[1].data());
  StringInterner moved(std::move(interner));
  for (SymbolId id = 0; id < views.size(); ++id) {
    ASSERT_EQ(moved.View(id).data(), views[id].data());
  }
  ExpectSameAsOracle(moved, oracle);
  MapInterner oracle_for_copy = oracle;
  for (int i = 0; i < 3000; ++i) {
    const std::string s = "after-" + std::to_string(i % 2000);
    ASSERT_EQ(moved.Intern(s), oracle.Intern(s));
    ASSERT_EQ(copy.Intern(s), oracle_for_copy.Intern(s));
  }
  ExpectSameAsOracle(moved, oracle);
  ExpectSameAsOracle(copy, oracle_for_copy);
  for (SymbolId id = 0; id < views.size(); ++id) {
    ASSERT_EQ(moved.View(id).data(), views[id].data());
  }
}

TEST(StringInternerTest, MemoryBytesCountsTheTables) {
  StringInterner interner;
  EXPECT_EQ(interner.memory_bytes(), 0u);
  interner.Intern("x");
  // One arena block, one view and the first table of 16 slots.
  EXPECT_GE(interner.memory_bytes(), 4096u + sizeof(std::string_view) +
                                         16 * 2 * sizeof(SymbolId));
}

TEST(SymbolPackingTest, RoundTripsAndOrders) {
  const std::uint64_t packed = PackSymbolPair(7, 42);
  EXPECT_EQ(PackedHi(packed), 7u);
  EXPECT_EQ(PackedLo(packed), 42u);
  EXPECT_EQ(PackSymbolPair(0, 0), 0u);
  const std::uint64_t max = PackSymbolPair(0xFFFFFFFFu, 0xFFFFFFFFu);
  EXPECT_EQ(PackedHi(max), 0xFFFFFFFFu);
  EXPECT_EQ(PackedLo(max), 0xFFFFFFFFu);
  // Packed order is (hi, lo) lexicographic on the id pair.
  EXPECT_LT(PackSymbolPair(1, 99), PackSymbolPair(2, 0));
  EXPECT_LT(PackSymbolPair(2, 0), PackSymbolPair(2, 1));
}

}  // namespace
}  // namespace rulelink::util
