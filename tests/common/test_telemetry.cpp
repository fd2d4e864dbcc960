// Tests for the always-on telemetry plane: sketches, gauge sources, the
// snapshot ring, the background aggregator, and the sampled op timer --
// plus the sidecar's JSON-lines emitters (the plane's export and the span
// ring's Chrome lines), which every record must pass a strict parser.  The plane is a process-wide singleton whose schema is append-only
// by design, so tests assert containment (my series is there with my value)
// rather than exact schema shapes, and reset() the sketch/ring state at
// each test head.
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.hpp"

namespace lfst::telemetry {
namespace {

// Column index of `name` in the current schema, or npos.
std::size_t column_of(const std::string& name) {
  const std::vector<std::string> names = plane::instance().series_names();
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? std::string::npos
                           : static_cast<std::size_t>(it - names.begin());
}

TEST(Telemetry, SketchRecordAndSnapshot) {
  auto& p = plane::instance();
  p.reset();
  for (int i = 1; i <= 100; ++i) {
    p.record(skid::op_add, static_cast<std::uint64_t>(i));
  }
  const qsketch_snapshot s = p.sketch(skid::op_add);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 4.0);
  p.reset();
  EXPECT_EQ(p.sketch(skid::op_add).count, 0u);
}

TEST(Telemetry, TicksPerUsIsCalibratedAndPositive) {
  // The schema line carries the calibration the exported microseconds
  // were divided by.
  const std::string json = plane::instance().to_json_lines();
  const std::string key = "\"ticks_per_us\":";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  const double tpu = std::stod(json.substr(at + key.size()));
  EXPECT_GT(tpu, 0.0);
  EXPECT_TRUE(std::isfinite(tpu));
}

TEST(Telemetry, SchemaHasSketchColumnsUpFront) {
  const std::vector<std::string> names = plane::instance().series_names();
  ASSERT_GE(names.size(), 6 * kSketchCount);
  EXPECT_EQ(names[0], "op.add.p50_us");
  EXPECT_NE(column_of("op.contains.p99_us"), std::string::npos);
  EXPECT_NE(column_of("storage.wal.commit.count"), std::string::npos);
  // The batch sketch is a raw size, not a time: no _us suffix.
  EXPECT_NE(column_of("storage.wal.batch.p99"), std::string::npos);
  EXPECT_EQ(column_of("storage.wal.batch.p99_us"), std::string::npos);
}

TEST(Telemetry, GaugeSourceFlowsIntoSamplesAndJson) {
  auto& p = plane::instance();
  p.reset();
  {
    scoped_source src("test.flow", {"alpha", "beta"}, [](double* v) {
      v[0] = 1.5;
      v[1] = 42.0;
    });
    p.snapshot_now();
    const auto samples = p.read_samples();
    ASSERT_FALSE(samples.empty());
    const auto& last = samples.back();
    const std::size_t ca = column_of("test.flow.alpha");
    const std::size_t cb = column_of("test.flow.beta");
    ASSERT_NE(ca, std::string::npos);
    ASSERT_NE(cb, std::string::npos);
    EXPECT_DOUBLE_EQ(last.values[ca], 1.5);
    EXPECT_DOUBLE_EQ(last.values[cb], 42.0);

    const std::string json = p.to_json_lines();
    EXPECT_NE(json.find("\"test.flow.alpha\":1.5"), std::string::npos);
    EXPECT_NE(json.find("\"test.flow.beta\":42"), std::string::npos);
  }
  // Source gone: the next sample leaves the columns NaN, and NaN columns
  // are dropped from the JSON (still present in the schema line).
  p.reset();
  p.snapshot_now();
  const auto samples = p.read_samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_TRUE(std::isnan(samples.back().values[column_of("test.flow.alpha")]));
  const std::string json = p.to_json_lines();
  EXPECT_EQ(json.find("\"test.flow.alpha\":"), std::string::npos);
}

TEST(Telemetry, JsonLinesStructure) {
  auto& p = plane::instance();
  p.reset();
  p.record(skid::wal_fsync, 12345);
  p.snapshot_now();
  const std::string json = p.to_json_lines();

  std::istringstream is(json);
  std::string line;
  int schema = 0, sample = 0, sketch = 0;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"telemetry_schema\"") != std::string::npos) {
      ++schema;
      EXPECT_NE(line.find("\"ticks_per_us\":"), std::string::npos);
      EXPECT_NE(line.find("\"sample_stride\":"), std::string::npos);
      EXPECT_NE(line.find("\"op.add.p50_us\""), std::string::npos);
    } else if (line.find("\"type\":\"telemetry_sample\"") !=
               std::string::npos) {
      ++sample;
      EXPECT_NE(line.find("\"seq\":"), std::string::npos);
      EXPECT_NE(line.find("\"t_ms\":"), std::string::npos);
      EXPECT_NE(line.find("\"values\":{"), std::string::npos);
    } else if (line.find("\"type\":\"sketch\"") != std::string::npos) {
      ++sketch;
    }
  }
  EXPECT_EQ(schema, 1);
  EXPECT_GE(sample, 1);
  EXPECT_EQ(sketch, static_cast<int>(kSketchCount));
  // The fsync record shows up in its sketch summary with count 1.
  EXPECT_NE(
      json.find("\"name\":\"storage.wal.fsync\",\"count\":1"),
      std::string::npos);
}

TEST(Telemetry, AggregatorTakesPeriodicSamples) {
  auto& p = plane::instance();
  p.reset();
  p.start(std::chrono::milliseconds(5));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (p.samples_taken() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  p.stop();
  EXPECT_GE(p.samples_taken(), 3u);
  const auto samples = p.read_samples();
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].sample_no, samples[i - 1].sample_no + 1);
    EXPECT_GE(samples[i].wall_ms, samples[i - 1].wall_ms);
  }
  // Idempotent stop, restartable start.
  p.stop();
  p.start(std::chrono::milliseconds(5));
  p.stop();
}

TEST(Telemetry, RingKeepsOnlyLastCapacitySamples) {
  auto& p = plane::instance();
  p.reset();
  const std::size_t n = plane::kRingCapacity + 40;
  for (std::size_t i = 0; i < n; ++i) p.snapshot_now();
  const auto samples = p.read_samples();
  ASSERT_EQ(samples.size(), plane::kRingCapacity);
  EXPECT_EQ(samples.front().sample_no, n - plane::kRingCapacity);
  EXPECT_EQ(samples.back().sample_no, n - 1);
}

TEST(Telemetry, ConcurrentReadersSeeConsistentSlots) {
  auto& p = plane::instance();
  p.reset();
  std::atomic<bool> go{true};
  // A gauge source whose two columns are written as a matched pair; a
  // torn slot read would show them unequal.
  scoped_source src("test.pair", {"x", "y"}, [](double* v) {
    static double tick = 0.0;
    tick += 1.0;
    v[0] = tick;
    v[1] = tick;
  });
  const std::size_t cx = column_of("test.pair.x");
  const std::size_t cy = column_of("test.pair.y");
  p.snapshot_now();  // seed: the ring is never empty from here on
  std::thread writer([&] {
    while (go.load(std::memory_order_relaxed)) p.snapshot_now();
  });
  // Concurrent reads: a spinning writer may lap the oldest-first scan and
  // legitimately drop every slot, so the racing phase only asserts that
  // whatever DID survive the seqlock is pair-consistent.  Pace on
  // samples_taken() so the writer demonstrably ran before we stop it.
  std::uint64_t checked = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (p.samples_taken() < 500 &&
         std::chrono::steady_clock::now() < deadline) {
    for (const auto& s : p.read_samples()) {
      if (std::isnan(s.values[cx])) continue;
      EXPECT_DOUBLE_EQ(s.values[cx], s.values[cy])
          << "torn seqlock read at sample " << s.sample_no;
      ++checked;
    }
  }
  go.store(false, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(p.samples_taken(), 500u);
  // Quiescent read: nothing can lap us now, so the ring's full contents
  // must come back, every slot pair-consistent.
  for (const auto& s : p.read_samples()) {
    ASSERT_FALSE(std::isnan(s.values[cx]));
    EXPECT_DOUBLE_EQ(s.values[cx], s.values[cy]);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Telemetry, OpTimerRecordsFromFreshThread) {
  // The per-thread countdown starts at 1, so a brand-new thread's first op
  // is always sampled regardless of the stride.
  auto& p = plane::instance();
  p.reset();
  const std::uint64_t before = p.sketch(skid::op_contains).count;
  std::thread([&] {
    op_timer t(skid::op_contains);
    (void)t;
  }).join();
  const qsketch_snapshot s = p.sketch(skid::op_contains);
  EXPECT_EQ(s.count, before + 1);
}

TEST(Telemetry, ScopedSourceMoveTransfersOwnership) {
  auto& p = plane::instance();
  p.reset();
  scoped_source a("test.move", {"v"}, [](double* v) { v[0] = 7.0; });
  scoped_source b(std::move(a));
  scoped_source c;
  c = std::move(b);
  p.snapshot_now();
  const auto samples = p.read_samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_DOUBLE_EQ(samples.back().values[column_of("test.move.v")], 7.0);
  // a and b are empty shells now; their destruction must not unregister c.
}

// --- sidecar emitters ---------------------------------------------------------


// Minimal RFC 8259 recursive-descent parser, just enough to *strictly*
// validate the exporters' output (substring checks would accept broken
// quoting).  Accepts exactly one JSON value; rejects trailing bytes,
// bad escapes, bare control characters and malformed numbers.
namespace json8259 {

struct cursor {
  const std::string& s;
  std::size_t i = 0;
  bool eof() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  bool eat(char c) {
    if (eof() || s[i] != c) return false;
    ++i;
    return true;
  }
  void ws() {
    while (!eof() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                      s[i] == '\r')) {
      ++i;
    }
  }
};

bool value(cursor& c);  // forward

bool string(cursor& c) {
  if (!c.eat('"')) return false;
  while (!c.eof()) {
    const unsigned char ch = static_cast<unsigned char>(c.s[c.i]);
    if (ch == '"') {
      ++c.i;
      return true;
    }
    if (ch < 0x20) return false;  // raw control char: must be escaped
    if (ch == '\\') {
      ++c.i;
      if (c.eof()) return false;
      const char e = c.s[c.i];
      if (e == '"' || e == '\\' || e == '/' || e == 'b' || e == 'f' ||
          e == 'n' || e == 'r' || e == 't') {
        ++c.i;
      } else if (e == 'u') {
        ++c.i;
        for (int k = 0; k < 4; ++k) {
          if (c.eof() || !std::isxdigit(static_cast<unsigned char>(c.peek())))
            return false;
          ++c.i;
        }
      } else {
        return false;
      }
    } else {
      ++c.i;
    }
  }
  return false;  // unterminated
}

bool number(cursor& c) {
  c.eat('-');
  if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
    return false;
  if (c.peek() == '0') {
    ++c.i;
  } else {
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
      ++c.i;
  }
  if (!c.eof() && c.peek() == '.') {
    ++c.i;
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
      return false;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
      ++c.i;
  }
  if (!c.eof() && (c.peek() == 'e' || c.peek() == 'E')) {
    ++c.i;
    if (!c.eof() && (c.peek() == '+' || c.peek() == '-')) ++c.i;
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
      return false;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
      ++c.i;
  }
  return true;
}

bool object(cursor& c) {
  if (!c.eat('{')) return false;
  c.ws();
  if (c.eat('}')) return true;
  while (true) {
    c.ws();
    if (!string(c)) return false;
    c.ws();
    if (!c.eat(':')) return false;
    c.ws();
    if (!value(c)) return false;
    c.ws();
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

bool array(cursor& c) {
  if (!c.eat('[')) return false;
  c.ws();
  if (c.eat(']')) return true;
  while (true) {
    c.ws();
    if (!value(c)) return false;
    c.ws();
    if (c.eat(']')) return true;
    if (!c.eat(',')) return false;
  }
}

bool literal(cursor& c, const char* lit) {
  const std::size_t n = std::char_traits<char>::length(lit);
  if (c.s.compare(c.i, n, lit) != 0) return false;
  c.i += n;
  return true;
}

bool value(cursor& c) {
  if (c.eof()) return false;
  switch (c.peek()) {
    case '{':
      return object(c);
    case '[':
      return array(c);
    case '"':
      return string(c);
    case 't':
      return literal(c, "true");
    case 'f':
      return literal(c, "false");
    case 'n':
      return literal(c, "null");
    default:
      return number(c);
  }
}

// True iff `line` is exactly one valid JSON value with nothing after it.
bool parses(const std::string& line) {
  cursor c{line};
  c.ws();
  if (!value(c)) return false;
  c.ws();
  return c.eof();
}

}  // namespace json8259

TEST(Export, ParserSelfCheck) {
  // The validator must be strict enough to matter.
  EXPECT_TRUE(json8259::parses(R"({"a":1,"b":[true,null,"x\n"],"c":-0.5e3})"));
  EXPECT_TRUE(json8259::parses(R"({"u":"\u00e9"})"));
  EXPECT_FALSE(json8259::parses(R"({"a":1)"));          // unterminated object
  EXPECT_FALSE(json8259::parses(R"({"a":01})"));        // leading zero
  EXPECT_FALSE(json8259::parses(R"({"a":1} trailing)"));
  EXPECT_FALSE(json8259::parses("{\"a\":\"\x01\"}"));   // raw control char
  EXPECT_FALSE(json8259::parses(R"({"a":"\q"})"));      // bad escape
  EXPECT_FALSE(json8259::parses(R"({"a" 1})"));         // missing colon
}

std::vector<trace::span_record> every_span_kind() {
  std::vector<trace::span_record> spans;
  for (std::size_t i = 0; i < static_cast<std::size_t>(trace::sid::kCount);
       ++i) {
    const auto id = static_cast<trace::sid>(i);
    const std::uint64_t t0 = 1000 + 10 * i;
    spans.push_back(trace::span_record{id, t0,
                                       trace::is_event(id) ? t0 : t0 + 5,
                                       1, 2, i % 3, i * 7});
  }
  return spans;
}

TEST(Export, JsonLinesAreWellFormedObjects) {
  const std::string lines = trace::to_chrome_lines(every_span_kind(), 2.0);
  std::istringstream is(lines);
  std::string line;
  bool saw_span = false, saw_event = false;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":\"span\""), std::string::npos);
    if (line.find("\"skiptree.add\"") != std::string::npos) {
      saw_span = true;
      EXPECT_NE(line.find("\"retries\":1,\"depth\":2"), std::string::npos);
    }
    if (line.find("\"skiptree.split\"") != std::string::npos) {
      saw_event = true;
      EXPECT_NE(line.find("\"dur\":0"), std::string::npos);
      EXPECT_NE(line.find("\"payload\":"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_event);
}

TEST(Export, WriteJsonFileRoundTrips) {
  auto& p = plane::instance();
  p.reset();
  p.record(skid::checkpoint, 77);
  const std::string path =
      ::testing::TempDir() + "test_telemetry_sidecar.jsonl";
  ASSERT_TRUE(p.write_json_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  // Same records as the in-memory export (values like ticks_per_us are
  // re-measured per export, so compare shape, not bytes).
  const std::string again = p.to_json_lines();
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'),
            std::count(again.begin(), again.end(), '\n'));
  EXPECT_EQ(contents.rfind("{\"type\":\"telemetry_schema\"", 0), 0u);
  EXPECT_NE(contents.find("\"name\":\"storage.checkpoint\",\"count\":1"),
            std::string::npos);
  in.close();
  std::remove(path.c_str());
}

TEST(Export, EveryJsonLineSurvivesAStrictParser) {
  auto& p = plane::instance();
  p.reset();
  // Populate every emit path: every sketch, a gauge source whose series
  // name needs escaping, a snapshot, and one span of every kind.
  for (std::size_t i = 0; i < kSketchCount; ++i) {
    p.record(static_cast<skid>(i), 1);
    p.record(static_cast<skid>(i), 1u << 20);
  }
  scoped_source src("test.\"quoted\\name", {"v"},
                    [](double* v) { v[0] = 2.5; });
  p.snapshot_now();
  const std::string json =
      p.to_json_lines() + trace::to_chrome_lines(every_span_kind(), 1.5);
  std::istringstream is(json);
  std::string line;
  std::size_t lines = 0, spans = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(json8259::parses(line))
        << "line " << lines << " is not valid JSON: " << line;
    if (line.find("\"type\":\"span\"") != std::string::npos) ++spans;
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(trace::sid::kCount));
  EXPECT_NE(json.find("test.\\\"quoted\\\\name.v"), std::string::npos);
}

}  // namespace
}  // namespace lfst::telemetry
