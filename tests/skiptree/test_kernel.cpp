// In-node search fuzzing: node_search must agree with std::lower_bound on
// every input.
//
// node_search (skiptree/detail/kernel.hpp) implements the encoded index
// `search_keys` has carried since the seed: >= 0 means found at that index
// (leftmost match under duplicates), < 0 encodes -(insertion point) - 1.
// Coverage here spans nkeys 0..300, duplicate keys adjacent to the probe,
// extreme values (min/max of the key type), signed and unsigned 32/64-bit
// keys, contents-block layouts (leaf vs routing, inf set/unset), a reversed
// order (std::greater) and string keys.
#include "skiptree/detail/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "skiptree/contents.hpp"
#include "skiptree/detail/core.hpp"

namespace lfst::skiptree {
namespace {

/// The oracle: std::lower_bound, encoded exactly like search_keys.
template <typename T, typename Compare>
int ref_search(const std::vector<T>& keys, const T& v, const Compare& cmp) {
  auto it = std::lower_bound(keys.begin(), keys.end(), v, cmp);
  const int pos = static_cast<int>(it - keys.begin());
  if (it != keys.end() && !cmp(v, *it)) return pos;
  return -pos - 1;
}

template <typename T, typename Compare>
void expect_all_probes_match(const std::vector<T>& keys, const Compare& cmp,
                             const std::vector<T>& probes) {
  for (const T& v : probes) {
    const int want = ref_search(keys, v, cmp);
    const int got = node_search(keys.data(),
                                static_cast<std::uint32_t>(keys.size()), v,
                                cmp);
    ASSERT_EQ(want, got) << "node_search diverged on nkeys=" << keys.size();
  }
}

/// Probe set for a key vector: every key, its neighbors one step left and
/// right, the type's extremes, and a spread of random values.
template <typename T, typename Rng>
std::vector<T> make_probes(const std::vector<T>& keys, Rng& rng) {
  std::vector<T> probes{std::numeric_limits<T>::min(),
                        std::numeric_limits<T>::max(), T{0}};
  for (const T& k : keys) {
    probes.push_back(k);
    if (k > std::numeric_limits<T>::min()) probes.push_back(k - 1);
    if (k < std::numeric_limits<T>::max()) probes.push_back(k + 1);
  }
  std::uniform_int_distribution<T> wide(std::numeric_limits<T>::min(),
                                        std::numeric_limits<T>::max());
  for (int i = 0; i < 16; ++i) probes.push_back(wide(rng));
  return probes;
}

template <typename T>
class KernelFuzzTest : public ::testing::Test {};

using KeyTypes =
    ::testing::Types<std::int32_t, std::uint32_t, std::int64_t, std::uint64_t>;
TYPED_TEST_SUITE(KernelFuzzTest, KeyTypes);

// The core equivalence sweep: random sorted key vectors (with duplicates
// forced adjacent).  nkeys covers 0 up past the widest node either tree
// builds (256 for the b-link default M = 128).
TYPED_TEST(KernelFuzzTest, MatchesLowerBound) {
  using T = TypeParam;
  std::mt19937_64 rng(0xC0FFEEu + sizeof(T));
  const std::less<T> cmp;
  for (std::uint32_t nkeys : {0u, 1u, 2u, 3u, 5u, 8u, 16u, 31u, 32u, 33u,
                              63u, 64u, 65u, 100u, 128u, 200u, 256u, 300u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<T> keys(nkeys);
      std::uniform_int_distribution<T> dist(std::numeric_limits<T>::min(),
                                            std::numeric_limits<T>::max());
      for (T& k : keys) k = dist(rng);
      // Half the trials compress the value range so duplicates appear and
      // sit adjacent after sorting -- the leftmost-match case.
      if (trial % 2 == 1) {
        for (T& k : keys) k = static_cast<T>(k % 16);
      }
      std::sort(keys.begin(), keys.end());
      expect_all_probes_match(keys, cmp, make_probes(keys, rng));
    }
  }
}

// Extremes concentrated near the sign boundary, where a compare in the
// wrong domain (signed vs unsigned) would flip its verdict.
TYPED_TEST(KernelFuzzTest, SignBoundaryValues) {
  using T = TypeParam;
  const std::less<T> cmp;
  std::vector<T> keys{std::numeric_limits<T>::min(),
                      static_cast<T>(std::numeric_limits<T>::min() + 1),
                      static_cast<T>(T{0} - 1),  // unsigned: max; signed: -1
                      T{0},
                      T{1},
                      static_cast<T>(std::numeric_limits<T>::max() - 1),
                      std::numeric_limits<T>::max()};
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  expect_all_probes_match(keys, cmp, keys);  // probe the boundary values
}

// node_search must search contents payload blocks exactly as it searches
// plain arrays: the block's key pointer is interior (after the header), and
// the implicit +inf terminator / leaf flag are NOT the search's business --
// nkeys alone bounds it, whatever inf and leaf say.
TEST(KernelContentsTest, PayloadLayoutsAcrossInfLeafVariants) {
  using C = contents<int>;
  using N = tree_node<int>;
  std::mt19937_64 rng(2026);
  const std::less<int> cmp;
  std::vector<N*> nodes;
  for (std::uint32_t nkeys : {0u, 1u, 7u, 32u, 64u, 96u}) {
    std::vector<int> keys(nkeys);
    std::uniform_int_distribution<int> dist(-1000, 1000);
    for (int& k : keys) k = dist(rng);
    std::sort(keys.begin(), keys.end());
    for (bool inf : {false, true}) {
      for (bool leaf : {false, true}) {
        if (nkeys == 0 && !inf && !leaf) continue;  // routing needs children
        C* c;
        if (leaf) {
          c = C::make_leaf(keys, inf, nullptr);
        } else {
          std::vector<N*> kids(nkeys + (inf ? 1 : 0));
          for (N*& n : kids) {
            n = new N;
            nodes.push_back(n);
          }
          c = C::make_routing(keys, kids, inf, nullptr);
        }
        for (const int v : make_probes(keys, rng)) {
          const int want = ref_search(keys, v, cmp);
          ASSERT_EQ(want, node_search(c->keys(), c->nkeys, v, cmp));
          // The descent predicates over the encoded index must agree with
          // the payload's logical length, inf included.
          using core_t = detail::tree_core<int, std::less<int>,
                                           reclaim::ebr_policy,
                                           lfst::alloc::pool_policy>;
          EXPECT_EQ(core_t::is_past_end(want, *c),
                    want < 0 && static_cast<std::uint32_t>(-want - 1) ==
                                    c->logical_len());
        }
        C::destroy(c);
      }
    }
  }
  for (N* n : nodes) delete n;
}

// A custom order: keys sorted descending under std::greater, with
// duplicates.
TEST(KernelOrderTest, GreaterOrderMatchesLowerBound) {
  std::mt19937_64 rng(7);
  const std::greater<long> cmp;
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<long> keys(100);
    std::uniform_int_distribution<long> dist(-50, 50);
    for (long& k : keys) k = dist(rng);
    std::sort(keys.begin(), keys.end(), cmp);  // descending under greater
    expect_all_probes_match(keys, cmp, make_probes(keys, rng));
  }
}

TEST(KernelOrderTest, StringKeysMatchLowerBound) {
  const std::less<std::string> cmp;
  std::vector<std::string> keys{"alpha", "bravo", "bravo", "charlie",
                                "delta", "echo",  "golf"};
  std::vector<std::string> probes{"",     "alpha", "bravo", "carol",
                                  "echo", "golf",  "hotel"};
  expect_all_probes_match(keys, cmp, probes);
}

}  // namespace
}  // namespace lfst::skiptree
