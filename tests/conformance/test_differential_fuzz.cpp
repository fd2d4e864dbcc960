// Differential fuzzing: all five ordered-set implementations execute the
// SAME randomized operation tape, step by step, and every return value must
// agree with every other implementation's (and with std::set).  A single
// divergence pinpoints the operation index, the key, and the disagreeing
// structure.  Parameterized over seeds and key ranges so each instantiation
// explores a different region of the state space.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "avltree/opt_tree.hpp"
#include "avltree/snap_tree.hpp"
#include "blinktree/blink_tree.hpp"
#include "common/rng.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst {
namespace {

struct fuzz_params {
  std::uint64_t seed;
  std::uint64_t key_range;
  int ops;
};

std::string fuzz_name(const ::testing::TestParamInfo<fuzz_params>& info) {
  return "seed" + std::to_string(info.param.seed) + "_range" +
         std::to_string(info.param.key_range);
}

class DifferentialFuzz : public ::testing::TestWithParam<fuzz_params> {};

TEST_P(DifferentialFuzz, AllImplementationsAgreeOnEveryStep) {
  const fuzz_params p = GetParam();
  std::set<long> oracle;
  skiptree::skip_tree<long> tree;
  skiplist::skip_list<long> list;
  avltree::opt_tree<long> opt;
  avltree::snap_tree<long> snap;
  blinktree::blink_tree<long> blink(
      blinktree::blink_tree_options{/*min_node_size=*/4});

  xoshiro256ss rng(p.seed);
  for (int i = 0; i < p.ops; ++i) {
    const long k = static_cast<long>(rng.below(p.key_range));
    const auto kind = rng.below(3);
    bool expected = false;
    switch (kind) {
      case 0:
        expected = oracle.insert(k).second;
        ASSERT_EQ(tree.add(k), expected) << "skip-tree add op " << i;
        ASSERT_EQ(list.add(k), expected) << "skip-list add op " << i;
        ASSERT_EQ(opt.add(k), expected) << "opt-tree add op " << i;
        ASSERT_EQ(snap.add(k), expected) << "snap-tree add op " << i;
        ASSERT_EQ(blink.add(k), expected) << "b-link add op " << i;
        break;
      case 1:
        expected = oracle.erase(k) != 0;
        ASSERT_EQ(tree.remove(k), expected) << "skip-tree rm op " << i;
        ASSERT_EQ(list.remove(k), expected) << "skip-list rm op " << i;
        ASSERT_EQ(opt.remove(k), expected) << "opt-tree rm op " << i;
        ASSERT_EQ(snap.remove(k), expected) << "snap-tree rm op " << i;
        ASSERT_EQ(blink.remove(k), expected) << "b-link rm op " << i;
        break;
      default:
        expected = oracle.count(k) != 0;
        ASSERT_EQ(tree.contains(k), expected) << "skip-tree has op " << i;
        ASSERT_EQ(list.contains(k), expected) << "skip-list has op " << i;
        ASSERT_EQ(opt.contains(k), expected) << "opt-tree has op " << i;
        ASSERT_EQ(snap.contains(k), expected) << "snap-tree has op " << i;
        ASSERT_EQ(blink.contains(k), expected) << "b-link has op " << i;
    }
  }

  // Terminal agreement: sizes, full ordered content, and skip-tree
  // structural validity.
  EXPECT_EQ(tree.count_keys(), oracle.size());
  EXPECT_EQ(list.count_keys(), oracle.size());
  EXPECT_EQ(opt.count_keys(), oracle.size());
  EXPECT_EQ(snap.count_keys(), oracle.size());
  EXPECT_EQ(blink.count_keys(), oracle.size());
  const std::vector<long> want(oracle.begin(), oracle.end());
  auto collect = [](const auto& s) {
    std::vector<long> out;
    s.for_each([&](long k) { out.push_back(k); });
    return out;
  };
  EXPECT_EQ(collect(tree), want);
  EXPECT_EQ(collect(list), want);
  EXPECT_EQ(collect(opt), want);
  EXPECT_EQ(collect(snap), want);
  EXPECT_EQ(collect(blink), want);
  auto rep = skiptree::skip_tree_inspector<long>(tree).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Tapes, DifferentialFuzz,
    ::testing::Values(
        // Small ranges: heavy key collision, lots of duplicate/absent paths.
        fuzz_params{1, 8, 20000}, fuzz_params{2, 64, 20000},
        fuzz_params{3, 256, 20000},
        // Medium and large ranges.
        fuzz_params{4, 4096, 40000}, fuzz_params{5, 1 << 20, 40000},
        fuzz_params{6, std::uint64_t{1} << 40, 40000},
        // More seeds at the collision-heavy end.
        fuzz_params{7, 16, 30000}, fuzz_params{8, 1024, 30000},
        fuzz_params{9, 2, 10000}, fuzz_params{10, 1, 5000}),
    fuzz_name);

}  // namespace
}  // namespace lfst
