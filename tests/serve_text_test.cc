// Differential suite for the serve text path (serve/serve_loop.cc and the
// span tokenizer, number scanner and renderers in common/string_util).
//
// The oracle is the text path as it stood before it was made
// allocation-free: Split + Trim into owned strings, every coordinate copied
// into a std::string for strtod, every answer through StrPrintf. It lives
// here only. On a seeded corpus of hostile spellings both must produce the
// same answer bytes, the same error codes and the same strict-mode status,
// at every thread count. Render parity pins std::to_chars(general, 17) to
// printf's "%.17g" and integer rendering to "%lld".

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "roadpart/roadpart.h"

#ifndef RP_SERVE_PATH
#define RP_SERVE_PATH "rp_serve"
#endif

namespace roadpart {
namespace {

// --- Reference text path -----------------------------------------------------

bool RefParseDouble(std::string_view s, double* value) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  *value = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

bool RefParseInt(std::string_view s, int64_t* value) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  *value = std::strtoll(buf.c_str(), &end, 10);
  return end == buf.c_str() + buf.size() && errno != ERANGE;
}

std::vector<std::string_view> RefTokens(std::string_view line,
                                        std::vector<std::string>* storage) {
  *storage = Split(line, ' ');
  std::vector<std::string_view> tokens;
  for (const std::string& t : *storage) {
    std::string_view v = Trim(t);
    if (!v.empty()) tokens.push_back(v);
  }
  return tokens;
}

struct RefError {
  const char* code = nullptr;
  const char* detail = nullptr;
};

RefError RefParseLine(std::string_view line, bool* is_point,
                      double values[4]) {
  std::vector<std::string> storage;
  const std::vector<std::string_view> tokens = RefTokens(line, &storage);
  if (tokens[0] != "point" && tokens[0] != "range") {
    return {"bad-verb", "expected 'point' or 'range'"};
  }
  *is_point = tokens[0] == "point";
  const size_t want = *is_point ? 2 : 4;
  if (tokens.size() != want + 1) {
    return {"bad-arity", *is_point
                             ? "'point' takes exactly x y"
                             : "'range' takes exactly minx miny maxx maxy"};
  }
  for (size_t i = 0; i < want; ++i) {
    if (!RefParseDouble(tokens[i + 1], &values[i])) {
      return {"bad-coordinate", "unparsable coordinate"};
    }
    if (!std::isfinite(values[i])) {
      return {"bad-coordinate", "non-finite coordinate"};
    }
  }
  if (!*is_point && (values[0] > values[2] || values[1] > values[3])) {
    return {"inverted-box", "range box has minx > maxx or miny > maxy"};
  }
  return {};
}

// ServeQueries without admission or deadlines, through the reference parser
// and StrPrintf rendering.
Status RefServe(const Snapshot& snap, std::string_view queries, bool isolate,
                std::string* output) {
  std::string out;
  size_t line_number = 0;
  size_t pos = 0;
  while (pos < queries.size()) {
    const size_t eol = queries.find('\n', pos);
    const size_t end = eol == std::string_view::npos ? queries.size() : eol;
    ++line_number;
    const std::string_view line = Trim(queries.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    bool is_point = false;
    double v[4] = {0, 0, 0, 0};
    const RefError err = RefParseLine(line, &is_point, v);
    if (err.code != nullptr) {
      if (!isolate) {
        return Status::InvalidArgument(
            StrPrintf("query line %zu: %s", line_number, err.detail));
      }
      out += StrPrintf("error %zu %s\n", line_number, err.code);
    } else if (is_point) {
      const PointAnswer a = snap.NearestSegment({v[0], v[1]});
      out += a.segment_id < 0
                 ? std::string("point -1 -1 -1\n")
                 : StrPrintf("point %d %d %.17g\n", a.segment_id,
                             a.partition_id, a.distance);
    } else {
      const std::vector<int64_t> counts =
          snap.CountByPartition({{v[0], v[1]}, {v[2], v[3]}});
      int64_t total = 0;
      for (int64_t c : counts) total += c;
      out += StrPrintf("range %lld", static_cast<long long>(total));
      for (int64_t c : counts) {
        out += StrPrintf(" %lld", static_cast<long long>(c));
      }
      out += '\n';
    }
  }
  output->append(out);
  return Status::OK();
}

// --- Seeded corpus -------------------------------------------------------

// Spellings strtod accepts or rejects at the edges of its grammar.
const char* const kHostileNumbers[] = {
    // strtod-only syntax: leading '+', hex floats, inf/nan spellings.
    "+12.5", "+0", "+.5", "0x1p3", "-0x1.8p1", "0X1P-2", "0x.8", "0x",
    "inf", "-inf", "+inf", "INF", "infinity", "-Infinity", "infin", "nan",
    "-nan", "NaN", "nan(123)", "nan()", "nan(abc_9)", "nan(", "-nan(0x7)",
    // Out of range, denormals and signed zeros.
    "1e400", "-1e400", "1e-400", "-1e-400", "4.9406564584124654e-324",
    "2.2250738585072009e-308", "1e-310", "-1e-320", "-0", "-0.0", "0.",
    "1.7976931348623157e308", "1.7976931348623159e308",
    // Malformed.
    "-", ".", "1e", "1e+", "1E-", "1..2", "--1", "+-1", "-+1", "1.5x", "1,5",
    "e5", "1e5.5", "\v1", "1\v", "\f2.5", "0b101",
    // Accepted decimal corners.
    ".5", "5.", "-.5", "1E5", "1e+05", "00012", "-000.000", "9007199254740993",
    "0.1000000000000000055511151231257827021181583404541015625",
};

// Overlong tokens: long plain decimals and long fallback spellings.
std::vector<std::string> LongNumbers() {
  return {"1." + std::string(80, '0') + "5",
          "0." + std::string(120, '0') + "1",
          std::string(70, '9'),
          "1" + std::string(70, '0') + "e-70",
          "+" + std::string(90, '7'),
          "0x" + std::string(80, 'f') + "p-300",
          std::string(100, '1') + "x",
          "nan(" + std::string(80, 'a') + ")"};
}

class CorpusBuilder {
 public:
  CorpusBuilder(const BoundingBox& box, uint64_t seed)
      : box_(box), rng_(seed) {}

  std::string Build(int lines) {
    std::string text;
    for (int i = 0; i < lines; ++i) {
      text += Line();
      switch (rng_.NextBounded(8)) {
        case 0: text += "\r\n"; break;
        case 1: text += " \t\r\n"; break;
        default: text += "\n"; break;
      }
    }
    // Half the corpora end without a final newline.
    if (rng_.NextBounded(2) == 0) text.pop_back();
    return text;
  }

 private:
  std::string Number(double lo, double hi) {
    const uint64_t mode = rng_.NextBounded(20);
    if (mode < 12) {
      const double v = rng_.NextDouble(lo, hi);
      const char* fmt = mode < 4 ? "%.17g" : mode < 8 ? "%.3f" : "%g";
      return StrPrintf(fmt, v);
    }
    if (mode < 13) {
      const std::vector<std::string> longs = LongNumbers();
      return longs[rng_.NextBounded(longs.size())];
    }
    if (mode < 14) {
      // Tabs inside a token never split it.
      return StrPrintf("%.2f\t%.2f", rng_.NextDouble(lo, hi),
                       rng_.NextDouble(lo, hi));
    }
    constexpr size_t kCount = sizeof(kHostileNumbers) / sizeof(char*);
    return kHostileNumbers[rng_.NextBounded(kCount)];
  }

  std::string Separator() {
    switch (rng_.NextBounded(10)) {
      case 0: return "   ";
      case 1: return " \t ";
      case 2: return "\t \t";
      default: return " ";
    }
  }

  std::string Line() {
    const uint64_t shape = rng_.NextBounded(100);
    if (shape < 3) return "";
    if (shape < 5) return "# comment " + Number(0, 1);
    if (shape < 7) return " \t ";
    std::string verb = "point";
    size_t arity = 2;
    if (shape < 55) {
      // point, arity right
    } else if (shape < 80) {
      verb = "range";
      arity = 4;
    } else if (shape < 88) {
      verb = rng_.NextBounded(2) == 0 ? "point" : "range";
      arity = rng_.NextBounded(9);  // 0..8 coordinates: 7+ tokens too
    } else {
      const char* const kVerbs[] = {"Point", "pointx", "rang", "!stats",
                                    "point\t1", "-", "nan"};
      verb = kVerbs[rng_.NextBounded(7)];
    }
    const double w = box_.max.x - box_.min.x;
    const double h = box_.max.y - box_.min.y;
    std::string line = rng_.NextBounded(4) == 0 ? "  " + verb : verb;
    if (verb == "range" && arity == 4 && rng_.NextBounded(4) != 0) {
      // A well-formed box (or, one time in five, an inverted one) so the
      // range path answers real counts.
      double x0 = rng_.NextDouble(box_.min.x, box_.max.x);
      double y0 = rng_.NextDouble(box_.min.y, box_.max.y);
      double x1 = x0 + rng_.NextDouble(0, 0.5 * w);
      double y1 = y0 + rng_.NextDouble(0, 0.5 * h);
      if (rng_.NextBounded(5) == 0) std::swap(x0, x1);
      for (double v : {x0, y0, x1, y1}) {
        line += Separator() + StrPrintf("%.17g", v);
      }
      return line;
    }
    for (size_t i = 0; i < arity; ++i) {
      const bool x = i % 2 == 0;
      line += Separator() + (x ? Number(box_.min.x - 0.1 * w,
                                        box_.max.x + 0.1 * w)
                               : Number(box_.min.y - 0.1 * h,
                                        box_.max.y + 0.1 * h));
    }
    return line;
  }

  BoundingBox box_;
  Rng rng_;
};

struct Fixture {
  RoadNetwork network;
  std::unique_ptr<Snapshot> snapshot;
};

Fixture MakeFixture() {
  GridOptions grid;
  grid.rows = 6;
  grid.cols = 7;
  grid.two_way_fraction = 0.5;
  grid.seed = 11;
  auto net = GenerateGridNetwork(grid);
  RP_CHECK(net.ok());
  std::vector<int> labels(static_cast<size_t>(net->num_segments()));
  for (size_t s = 0; s < labels.size(); ++s) {
    labels[s] = static_cast<int>(s % 5);
  }
  auto snap = Snapshot::Build(*net, labels);
  RP_CHECK(snap.ok());
  return {std::move(net).value(),
          std::make_unique<Snapshot>(std::move(snap).value())};
}

std::vector<std::string> Lines(std::string_view text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    lines.emplace_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

// --- Differential: parse path --------------------------------------------

TEST(ServeTextTest, IsolateAnswersMatchReferenceAtEveryThreadCount) {
  const Fixture f = MakeFixture();
  std::set<std::string> codes_seen;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string corpus =
        CorpusBuilder(f.network.Bounds(), seed).Build(600);
    std::string want;
    ASSERT_TRUE(RefServe(*f.snapshot, corpus, /*isolate=*/true, &want).ok());
    int64_t want_errors = 0;
    for (const std::string& line : Lines(want)) {
      if (!StartsWith(line, "error ")) continue;
      ++want_errors;
      codes_seen.insert(line.substr(line.rfind(' ') + 1));
    }
    for (int threads : {1, 2, 8}) {
      ServeOptions options;
      options.on_malformed = MalformedQueryPolicy::kIsolate;
      options.num_threads = threads;
      options.batch_size = 37;
      std::string got;
      ServeBatchStats stats;
      ASSERT_TRUE(
          ServeQueries(*f.snapshot, corpus, options, &got, &stats).ok());
      ASSERT_EQ(got, want) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(stats.errored, want_errors);
    }
  }
  EXPECT_EQ(codes_seen, (std::set<std::string>{"bad-arity", "bad-coordinate",
                                                "bad-verb", "inverted-box"}));
}

TEST(ServeTextTest, StrictStatusMatchesReferencePerWindow) {
  const Fixture f = MakeFixture();
  const std::string corpus =
      CorpusBuilder(f.network.Bounds(), 99).Build(3000);
  const std::vector<std::string> lines = Lines(corpus);
  // Three-line windows: each either serves whole or fails on its first bad
  // line, so strict mode is checked against hundreds of error sites.
  int failures = 0;
  for (size_t begin = 0; begin < lines.size(); begin += 3) {
    std::string window;
    for (size_t i = begin; i < std::min(lines.size(), begin + 3); ++i) {
      window += lines[i] + "\n";
    }
    std::string want = "prefix\n";
    const Status want_status =
        RefServe(*f.snapshot, window, /*isolate=*/false, &want);
    std::string got = "prefix\n";
    const Status got_status =
        ServeQueries(*f.snapshot, window, ServeOptions{}, &got);
    ASSERT_EQ(got_status.ToString(), want_status.ToString()) << window;
    ASSERT_EQ(got, want) << window;
    failures += got_status.ok() ? 0 : 1;
  }
  EXPECT_GT(failures, 100);
}

TEST(ServeTextTest, EveryErrorCodeAppears) {
  const Fixture f = MakeFixture();
  const std::string queries =
      "pointx 1 2\n"
      "point 1\n"
      "range 0 0 1 1 2 3 4\n"
      "point +inf 1\n"
      "point 1e400 1\n"
      "point nan(7) 1\n"
      "point 1..2 3\n"
      "range 5 0 4 1\n"
      "point\t1 2\n"
      "point +1 0x1p1\n";
  ServeOptions options;
  options.on_malformed = MalformedQueryPolicy::kIsolate;
  std::string got;
  ASSERT_TRUE(ServeQueries(*f.snapshot, queries, options, &got).ok());
  const std::vector<std::string> lines = Lines(got);
  ASSERT_EQ(lines.size(), 10u);
  EXPECT_EQ(lines[0], "error 1 bad-verb");
  EXPECT_EQ(lines[1], "error 2 bad-arity");
  EXPECT_EQ(lines[2], "error 3 bad-arity");
  EXPECT_EQ(lines[3], "error 4 bad-coordinate");
  EXPECT_EQ(lines[4], "error 5 bad-coordinate");
  EXPECT_EQ(lines[5], "error 6 bad-coordinate");
  EXPECT_EQ(lines[6], "error 7 bad-coordinate");
  EXPECT_EQ(lines[7], "error 8 inverted-box");
  EXPECT_EQ(lines[8], "error 9 bad-verb");
  EXPECT_TRUE(StartsWith(lines[9], "point ")) << lines[9];
}

TEST(ServeTextTest, FiniteCoordinatesFarOutStillAnswer) {
  // Every squared distance overflows to +inf (or the projection to NaN)
  // this far out; the answer must still be the brute-force one.
  const Fixture f = MakeFixture();
  for (double x : {1e154, 1e200, -1e200, DBL_MAX, -DBL_MAX, 0.0}) {
    for (double y : {1e200, -DBL_MAX, DBL_MAX, 0.0}) {
      const PointAnswer got = f.snapshot->NearestSegment({x, y});
      const NearestHit want = BruteForceNearestSegment(f.network, {x, y});
      ASSERT_GE(got.segment_id, 0) << x << " " << y;
      EXPECT_EQ(got.segment_id, want.segment_id) << x << " " << y;
      EXPECT_EQ(got.distance, std::sqrt(want.distance_squared));
    }
  }
  std::string got;
  ASSERT_TRUE(ServeQueries(*f.snapshot,
                           "point 1.7976931348623157e308 -1e200\n",
                           ServeOptions{}, &got)
                  .ok());
  EXPECT_EQ(got, "point 0 0 inf\n");
}

TEST(ServeTextTest, CountIntoReusedBufferMatchesFreshVector) {
  const Fixture f = MakeFixture();
  const BoundingBox bounds = f.network.Bounds();
  Rng rng(12);
  std::vector<int64_t> counts(9, 7);  // stale contents, wrong length
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.NextDouble(bounds.min.x, bounds.max.x);
    const double y = rng.NextDouble(bounds.min.y, bounds.max.y);
    const double w = rng.NextDouble(0, 300);
    const double h = rng.NextDouble(0, 300);
    const BoundingBox box{{x, y}, {x + w, y + h}};
    f.snapshot->CountByPartitionInto(box, &counts);
    ASSERT_EQ(counts, f.snapshot->CountByPartition(box));
  }
}

// --- Differential: tokenizer and number scanner ---------------------------

std::string RandomText(Rng* rng, std::string_view alphabet, size_t max_len) {
  std::string s(rng->NextBounded(max_len + 1), ' ');
  for (char& c : s) c = alphabet[rng->NextBounded(alphabet.size())];
  return s;
}

TEST(ServeTextTest, TokenizerMatchesSplitTrimFilter) {
  Rng rng(5);
  std::string_view storage[3];
  for (int trial = 0; trial < 100000; ++trial) {
    const std::string s = RandomText(&rng, "  \t\r\nab1", 16);
    std::vector<std::string> owned;
    const std::vector<std::string_view> want = RefTokens(s, &owned);
    const size_t count = TokenizeSpaces(s, storage, 3);
    ASSERT_EQ(count, want.size()) << '"' << s << '"';
    for (size_t i = 0; i < std::min<size_t>(count, 3); ++i) {
      ASSERT_EQ(storage[i], want[i]) << '"' << s << '"';
    }
  }
}

void ExpectSameDouble(const std::string& s) {
  double want = 0.0;
  const bool want_ok = RefParseDouble(s, &want);
  const Result<double> got = ParseDouble(s);
  ASSERT_EQ(got.ok(), want_ok) << '"' << s << '"';
  if (!want_ok) {
    if (!Trim(s).empty()) {
      EXPECT_EQ(got.status().message(),
                "not a number: '" + std::string(Trim(s)) + "'");
    }
    return;
  }
  uint64_t want_bits = 0;
  uint64_t got_bits = 0;
  std::memcpy(&want_bits, &want, sizeof(want));
  std::memcpy(&got_bits, &*got, sizeof(want_bits));
  ASSERT_EQ(got_bits, want_bits) << '"' << s << '"';
}

TEST(ServeTextTest, ParseDoubleIsStrtodBitForBit) {
  for (const char* s : kHostileNumbers) ExpectSameDouble(s);
  for (const std::string& s : LongNumbers()) ExpectSameDouble(s);
  ExpectSameDouble(std::string("1\0", 2));
  ExpectSameDouble(" \t-2.5\r\n");
  Rng rng(7);
  for (int trial = 0; trial < 100000; ++trial) {
    ExpectSameDouble(RandomText(&rng, "0123456789.-+eExXpPinfatyIN() \t", 12));
  }
  // Random bit patterns printed in several printf spellings.
  for (int trial = 0; trial < 100000; ++trial) {
    uint64_t bits = rng.Next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    for (const char* fmt : {"%.17g", "%.3e", "%g", "%a", "%.0f"}) {
      if (std::strcmp(fmt, "%.0f") == 0 && std::fabs(v) > 1e30) continue;
      ExpectSameDouble(StrPrintf(fmt, v));
    }
  }
}

void ExpectSameInt(const std::string& s) {
  int64_t want = 0;
  const bool want_ok = RefParseInt(s, &want);
  const Result<int64_t> got = ParseInt(s);
  ASSERT_EQ(got.ok(), want_ok) << '"' << s << '"';
  if (want_ok) {
    ASSERT_EQ(*got, want) << '"' << s << '"';
  }
}

TEST(ServeTextTest, ParseIntIsStrtollWithRangeCheck) {
  for (const char* s :
       {"0", "-0", "+7", "007", "-", "+", "--1", "1x", " 12 ", "\v3", "1e3",
        "9223372036854775807", "-9223372036854775808", "9223372036854775808",
        "-9223372036854775809", "99999999999999999999"}) {
    ExpectSameInt(s);
  }
  ExpectSameInt("+" + std::string(80, '0') + "42");
  ExpectSameInt(std::string(80, '9'));
  Rng rng(8);
  for (int trial = 0; trial < 100000; ++trial) {
    ExpectSameInt(RandomText(&rng, "0123456789-+ x", 21));
  }
}

// --- Render parity ---------------------------------------------------------

void ExpectRenderParity(double v) {
  char want[64];
  std::snprintf(want, sizeof(want), "%.17g", v);
  std::string got;
  AppendDouble17(v, &got);
  ASSERT_EQ(got, want);
}

TEST(ServeTextTest, DoubleRenderMatchesPrintf17g) {
  for (double v : {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, DBL_TRUE_MIN,
                   -DBL_TRUE_MIN, DBL_MIN / 3, 1.0, 0.1, 1e16, 1e17, 123.5,
                   std::nextafter(1.0, 2.0), 1e-5, 9.999999999999999e22}) {
    ExpectRenderParity(v);
  }
  // Real served distances.
  const Fixture f = MakeFixture();
  Rng rng(3);
  const BoundingBox box = f.network.Bounds();
  for (int i = 0; i < 20000; ++i) {
    const PointAnswer a = f.snapshot->NearestSegment(
        {rng.NextDouble(box.min.x, box.max.x),
         rng.NextDouble(box.min.y, box.max.y)});
    ExpectRenderParity(a.distance);
  }
  // Finite bit patterns: every exponent, sign and mantissa shape.
  int checked = 0;
  while (checked < 1000000) {
    const uint64_t bits = rng.Next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    ExpectRenderParity(v);
    ++checked;
  }
}

TEST(ServeTextTest, IntRenderMatchesPrintfLld) {
  Rng rng(4);
  std::vector<int64_t> values = {0, 1, -1, 9, 10, -10, INT64_MAX, INT64_MIN,
                                 INT64_MAX - 1, INT64_MIN + 1};
  for (int i = 0; i < 100000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Next()) >>
                     rng.NextBounded(64));
  }
  for (int64_t v : values) {
    std::string got = "x";
    AppendInt(v, &got);
    ASSERT_EQ(got, "x" + StrPrintf("%lld", static_cast<long long>(v)));
  }
}

// --- rp_serve flag narrowing ------------------------------------------------

struct ToolRun {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ToolRun RunServe(const std::string& args) {
  const std::string out = testing::TempDir() + "/serve_text_stdout.txt";
  const std::string err = testing::TempDir() + "/serve_text_stderr.txt";
  const std::string command = std::string(RP_SERVE_PATH) + " " + args +
                              " > " + out + " 2> " + err;
  const int status = std::system(command.c_str());
  ToolRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.stdout_text = ReadAll(out);
  run.stderr_text = ReadAll(err);
  return run;
}

TEST(ServeTextTest, RpServeRejectsFlagsThatDoNotFitInt) {
  const Fixture f = MakeFixture();
  const std::string snap = testing::TempDir() + "/serve_text.rpsnap";
  const std::string queries = testing::TempDir() + "/serve_text_queries.txt";
  ASSERT_TRUE(f.snapshot->Save(snap).ok());
  const std::string text = "point 1 2\nrange 0 0 50 50\npoint 3 4\n";
  ASSERT_TRUE(AtomicWriteFile(queries, text).ok());

  struct Case {
    const char* flag;
    const char* message;
  };
  for (const Case& c : {
           Case{"--batch-size=4294967297",
                "--batch-size must be in [1, 2147483647], got 4294967297"},
           Case{"--batch-size=2147483648",
                "--batch-size must be in [1, 2147483647], got 2147483648"},
           Case{"--batch-size=0",
                "--batch-size must be in [1, 2147483647], got 0"},
           Case{"--threads=-1",
                "--threads must be in [0, 2147483647], got -1"},
           Case{"--threads=2147483648",
                "--threads must be in [0, 2147483647], got 2147483648"},
           Case{"--threads=99999999999999999999",
                "integer out of range: '99999999999999999999'"},
       }) {
    const ToolRun run = RunServe(std::string(c.flag) + " " + snap + " " +
                                 queries);
    EXPECT_EQ(run.exit_code, 1) << c.flag;
    EXPECT_NE(run.stderr_text.find("InvalidArgument"), std::string::npos)
        << run.stderr_text;
    EXPECT_NE(run.stderr_text.find(c.message), std::string::npos)
        << run.stderr_text;
    EXPECT_EQ(run.stdout_text, "") << c.flag;
  }

  // The largest accepted batch still serves the exact answers.
  std::string want;
  ASSERT_TRUE(ServeQueries(*f.snapshot, text, ServeOptions{}, &want).ok());
  const ToolRun ok =
      RunServe("--threads=2 --batch-size=2147483647 " + snap + " " + queries);
  EXPECT_EQ(ok.exit_code, 0) << ok.stderr_text;
  EXPECT_EQ(ok.stdout_text, want);
}

}  // namespace
}  // namespace roadpart
