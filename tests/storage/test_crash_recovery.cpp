// Crash-injection harness: fork a writer child, kill it at a randomized
// failpoint-chosen site mid-load, recover in the parent, and validate that
// recovery yields exactly the acknowledged-durable state.
//
// The oracle is the classic persisted-ack protocol.  Thread t of the child
// runs a DETERMINISTIC op plan derived from thread_seed(seed, t) over an
// owner-partitioned key space (thread t owns keys == t mod threads, so no
// cross-thread interference inside one thread's restriction).  After each
// operation is ACKNOWLEDGED (fsync_policy::every_commit: the WAL fsync
// covering its LSN completed), the thread appends the op's plan index to
// its oracle file with a raw O_APPEND write -- raw write() survives a
// process kill (the page cache outlives the process), and because it
// happens strictly after the fsync, "oracle says i" implies "ops 1..i are
// durable".  The converse can be lost (killed between fsync and oracle
// write), which is the safe direction: the oracle is a lower bound.
//
// After each crash the parent replays the directory READ-ONLY
// (recover(repair=false), keeping the bytes identical for the next child
// generation) and checks, per thread: the recovered restriction to thread
// t's keys equals the plan simulation at SOME prefix p with
// oracle_acked(t) <= p <= plan_issued -- i.e. everything acknowledged
// survived, and anything beyond it is a clean prefix of what was issued,
// never a reordering, never a phantom.  Chains of crashes reuse the same
// directory (child generation g+1 starts by RECOVERING the dir generation
// g tore up, so crash-during-recovery and repair-then-crash paths get
// organic coverage), and the final clean generation must match the full
// plan exactly, with a validate()-clean tree.
//
// Iteration count: LFST_CRASH_ITERS (default 12 for local ctest; CI runs
// 200).  LFST_CRASH_THREADS / LFST_CRASH_OPS size the child workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/crc32c.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "skiptree/validate.hpp"
#include "storage/durable_tree.hpp"
#include "storage/recovery.hpp"
#include "scratch_dir.hpp"

namespace lfst::storage {
namespace {

namespace fs = std::filesystem;
using lfst::failpoint::action;
using lfst::failpoint::policy;
using lfst::failpoint::registry;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

const int kThreads = env_int("LFST_CRASH_THREADS", 3);
const int kPlanOps = env_int("LFST_CRASH_OPS", 1200);
const int kIters = env_int("LFST_CRASH_ITERS", 12);
constexpr int kMaxGenerations = 5;
constexpr int kKeySpace = 4096;

/// One planned operation; plans are pure functions of (seed, thread), so
/// parent and every child generation agree without communication.
struct plan_op {
  long key;
  bool is_add;
};

std::vector<plan_op> make_plan(std::uint64_t seed, int t) {
  std::vector<plan_op> plan;
  plan.reserve(static_cast<std::size_t>(kPlanOps));
  xoshiro256ss rng{thread_seed(seed, static_cast<std::uint64_t>(t))};
  for (int i = 0; i < kPlanOps; ++i) {
    const long key =
        t + kThreads * static_cast<long>(rng.below(kKeySpace / kThreads));
    plan.push_back(plan_op{key, rng.below(100) < 60});
  }
  return plan;
}

// --- oracle files ------------------------------------------------------------
// Entry: [index u32][crc32c(index) u32], appended with one raw write().

std::string oracle_path(const std::string& dir, int t) {
  return dir + "/oracle-" + std::to_string(t) + ".bin";
}

void oracle_append(int fd, std::uint32_t index) {
  unsigned char e[8];
  std::memcpy(e, &index, 4);
  const std::uint32_t sum = crc::crc32c_of(&index, 4);
  std::memcpy(e + 4, &sum, 4);
  // O_APPEND + a single 8-byte write: atomic enough for one writer, and
  // a kill mid-write leaves a short tail the reader detects by length/crc.
  [[maybe_unused]] const ssize_t n = ::write(fd, e, sizeof(e));
}

/// Highest validly-recorded acked index, or 0 (indices are 1-based).
std::uint32_t oracle_acked(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  std::uint32_t best = 0;
  unsigned char e[8];
  for (;;) {
    const ssize_t n = ::read(fd, e, sizeof(e));
    if (n != static_cast<ssize_t>(sizeof(e))) break;  // EOF or torn tail
    std::uint32_t index = 0;
    std::uint32_t sum = 0;
    std::memcpy(&index, e, 4);
    std::memcpy(&sum, e + 4, 4);
    if (sum == crc::crc32c_of(&index, 4) && index > best) best = index;
  }
  ::close(fd);
  return best;
}

// --- child ------------------------------------------------------------------

/// The kill points a child generation may arm (weighted towards the write
/// path, where most of the interesting torn states live).
const char* const kCrashSites[] = {
    "storage.wal.append",         "storage.wal.write",
    "storage.wal.write.mid",      "storage.wal.write.mid",
    "storage.wal.fsync",          "storage.wal.synced",
    "storage.wal.rotate",         "storage.wal.segment.create",
    "storage.checkpoint.begin",   "storage.checkpoint.write",
    "storage.checkpoint.fsync",   "storage.checkpoint.rename",
    "storage.checkpoint.prune",   "storage.recovery.repair",
};

/// Child body: open-or-recover, resume each thread's plan past its oracle
/// mark, crash whenever the armed failpoint fires.  Exits 0 on a completed
/// plan.  Never returns.
[[noreturn]] void run_child(const std::string& dir, std::uint64_t seed,
                            int generation) {
  xoshiro256ss rng{thread_seed(seed ^ 0xC4A5Full,
                               static_cast<std::uint64_t>(generation))};
  // Arm the crash: one site, armed after a randomized number of hits so
  // every depth of the workload gets sampled.  The final generation of a
  // chain arms nothing and runs to completion.
  const bool arm = generation + 1 < kMaxGenerations;
  if (arm) {
    const char* site =
        kCrashSites[rng.below(std::size(kCrashSites))];
    policy p;
    p.act = action::crash;
    // WAL-path sites are hit thousands of times per plan; checkpoint,
    // rotate, and recovery sites only a handful.  Scale the arming depth
    // to the site's hit rate or the rare sites never fire at all.
    const bool rare = std::strstr(site, "checkpoint") != nullptr ||
                      std::strstr(site, "rotate") != nullptr ||
                      std::strstr(site, "recovery") != nullptr ||
                      std::strstr(site, "segment.create") != nullptr;
    p.skip_first = rare ? rng.below(4) : 1 + rng.below(400);
    registry::instance().configure(site, p);
  }

  durable_options opts;
  opts.wal.sync = fsync_policy::every_commit;
  opts.checkpoint_bytes = 24 << 10;  // checkpoint often: more crash windows
  opts.checkpoint_poll = std::chrono::milliseconds(2);
  durable_tree<long> tree(dir, opts);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<plan_op> plan = make_plan(seed, t);
      const std::uint32_t acked = oracle_acked(oracle_path(dir, t));
      const int fd = ::open(oracle_path(dir, t).c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
      for (std::uint32_t i = acked; i < plan.size(); ++i) {
        const plan_op& op = plan[i];
        if (op.is_add) {
          tree.add(op.key);
        } else {
          tree.remove(op.key);
        }
        // add()/remove() returned: effective ops are fsynced (every_commit),
        // no-ops need no durability.  Record the ack.
        oracle_append(fd, i + 1);
      }
      ::close(fd);
    });
  }
  for (auto& w : workers) w.join();
  tree.close();
  std::_Exit(0);
}

// --- parent validation -------------------------------------------------------

/// Check thread t's recovered restriction equals its plan simulation at
/// some prefix in [acked, plan_ops], via an incremental symmetric-diff
/// counter (O(plan) total, not O(plan * keys)).
::testing::AssertionResult restriction_matches_some_prefix(
    const std::vector<plan_op>& plan, const std::set<long>& recovered,
    std::uint32_t acked) {
  std::set<long> sim;
  // diff = |sim SYMMETRIC-DIFF recovered|; prefix p matches iff diff == 0.
  long diff = static_cast<long>(recovered.size());
  if (acked == 0 && diff == 0) return ::testing::AssertionSuccess();
  for (std::uint32_t p = 1; p <= plan.size(); ++p) {
    const plan_op& op = plan[p - 1];
    const bool in_sim = sim.count(op.key) != 0;
    const bool in_rec = recovered.count(op.key) != 0;
    if (op.is_add && !in_sim) {
      sim.insert(op.key);
      diff += in_rec ? -1 : 1;
    } else if (!op.is_add && in_sim) {
      sim.erase(op.key);
      diff += in_rec ? 1 : -1;
    }
    if (p >= acked && diff == 0) return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "no plan prefix >= acked " << acked << " matches the recovered "
         << "restriction (" << recovered.size() << " keys)";
}

/// Read-only validation of the directory after a crash (or clean exit).
void validate_directory(const std::string& dir, std::uint64_t seed,
                        bool clean_exit) {
  const auto rec = recover<long>(dir, /*repair=*/false);
  // Global sanity: recovered keys are strictly ascending and unique.
  for (std::size_t i = 1; i < rec.keys.size(); ++i) {
    ASSERT_LT(rec.keys[i - 1], rec.keys[i]);
  }
  std::vector<std::set<long>> restriction(
      static_cast<std::size_t>(kThreads));
  for (const long k : rec.keys) {
    ASSERT_GE(k, 0);
    ASSERT_LT(k, kKeySpace);
    restriction[static_cast<std::size_t>(k % kThreads)].insert(k);
  }
  for (int t = 0; t < kThreads; ++t) {
    const std::vector<plan_op> plan = make_plan(seed, t);
    const std::uint32_t acked = oracle_acked(oracle_path(dir, t));
    if (clean_exit) {
      ASSERT_EQ(acked, plan.size()) << "thread " << t;
    }
    EXPECT_TRUE(restriction_matches_some_prefix(
        plan, restriction[static_cast<std::size_t>(t)], acked))
        << "thread " << t << (clean_exit ? " (clean exit)" : " (crash)");
  }
}

TEST(CrashRecovery, RandomizedKillPoints) {
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(env_int("LFST_CRASH_SEED", 1009));
  int crashes = 0;      // children that died at an armed kill point
  int recoveries = 0;   // post-crash validations performed
  const std::string root = testing::test_scratch_dir();
  for (int iter = 0; iter < kIters; ++iter) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(iter);
    const std::string dir = root + "/iter-" + std::to_string(iter);
    fs::remove_all(dir);
    fs::create_directories(dir);

    bool clean = false;
    for (int gen = 0; gen < kMaxGenerations && !clean; ++gen) {
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0) << "fork failed";
      if (pid == 0) {
        run_child(dir, seed, gen);  // never returns
      }
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status))
          << "child died by signal " << WTERMSIG(status);
      const int code = WEXITSTATUS(status);
      ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode)
          << "unexpected child exit code " << code;
      clean = code == 0;
      if (!clean) {
        ++crashes;
        ++recoveries;
      }
      validate_directory(dir, seed, clean);
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(clean) << "iteration " << iter
                       << ": chain never ran to completion";

    // Final recovery WITH repair must build a validate()-clean tree whose
    // contents equal the full-plan simulation.
    {
      durable_tree<long> t(dir);
      std::set<long> expected;
      for (int th = 0; th < kThreads; ++th) {
        std::set<long> sim;
        for (const plan_op& op : make_plan(seed, th)) {
          if (op.is_add) {
            sim.insert(op.key);
          } else {
            sim.erase(op.key);
          }
        }
        expected.insert(sim.begin(), sim.end());
      }
      ASSERT_EQ(t.size(), expected.size());
      for (const long k : expected) {
        ASSERT_TRUE(t.contains(k)) << "acknowledged key lost: " << k;
      }
      const auto rep =
          skiptree::skip_tree_inspector<long>(t.tree()).validate();
      ASSERT_TRUE(rep.ok) << rep.to_string();
      t.close();
    }
    fs::remove_all(dir);
  }
  std::printf("[harness] %d iterations, %d injected crashes, "
              "%d validated recoveries\n",
              kIters, crashes, recoveries);
  // A run where no kill point ever fired exercised nothing; with the site
  // weights and skip_first range above this fires many times per run.
  EXPECT_GT(crashes, 0) << "no crash was ever injected";
  fs::remove_all(root);
}

// Directed chain: force a crash INSIDE checkpoint rename on generation 0,
// then inside recovery repair on generation 1 -- the two windows where a
// bug would strand the directory unreadable.
TEST(CrashRecovery, DirectedCheckpointAndRepairCrashes) {
  const std::uint64_t seed = 424243;
  const std::string dir = testing::test_scratch_dir();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const char* forced[] = {"storage.checkpoint.rename",
                          "storage.recovery.repair"};
  bool clean = false;
  for (int gen = 0; gen < kMaxGenerations && !clean; ++gen) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      if (gen < 2) {
        policy p;
        p.act = action::crash;
        p.skip_first = 0;
        registry::instance().configure(forced[gen], p);
      }
      // Reuse the child body minus its own arming: generation index past
      // the arming horizon runs the plan to completion.
      run_child(dir, seed, kMaxGenerations - 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    const int code = WEXITSTATUS(status);
    ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode);
    clean = code == 0;
    validate_directory(dir, seed, clean);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(clean);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace lfst::storage
