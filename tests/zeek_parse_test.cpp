// Parity and property tests for the compiled-plan Zeek parsers: the
// zero-copy batch fast path (parse_ssl_records / parse_x509_records)
// against the row-materializing reference parsers, the column manifest
// against the full parse, the per-call intern dictionary against the
// global arena, concurrent chunk parses against the serial parse, plus
// the tokenizer's allocation-free guarantee and the schema-plan compiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mtlscope/colfmt/arena.hpp"
#include "mtlscope/zeek/log_io.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

// Global allocation counter for the allocation-free tokenizer check.
// Counting (not forbidding) keeps gtest and the fixtures free to
// allocate; the test measures the delta across the hot loop only.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mtlscope;

// --- helpers ---------------------------------------------------------------

void expect_equal(const zeek::SslRecord& a, const zeek::SslRecord& b,
                  std::size_t row) {
  EXPECT_EQ(a.ts, b.ts) << "row " << row;
  EXPECT_EQ(a.uid, b.uid) << "row " << row;
  EXPECT_EQ(a.orig_h, b.orig_h) << "row " << row;
  EXPECT_EQ(a.orig_p, b.orig_p) << "row " << row;
  EXPECT_EQ(a.resp_h, b.resp_h) << "row " << row;
  EXPECT_EQ(a.resp_p, b.resp_p) << "row " << row;
  EXPECT_EQ(a.version, b.version) << "row " << row;
  EXPECT_EQ(a.server_name, b.server_name) << "row " << row;
  EXPECT_EQ(a.established, b.established) << "row " << row;
  EXPECT_EQ(a.cert_chain_fuids, b.cert_chain_fuids) << "row " << row;
  EXPECT_EQ(a.client_cert_chain_fuids, b.client_cert_chain_fuids)
      << "row " << row;
}

void expect_equal(const zeek::X509Record& a, const zeek::X509Record& b,
                  std::size_t row) {
  EXPECT_EQ(a.fuid, b.fuid) << "row " << row;
  EXPECT_EQ(a.version, b.version) << "row " << row;
  EXPECT_EQ(a.serial, b.serial) << "row " << row;
  EXPECT_EQ(a.subject, b.subject) << "row " << row;
  EXPECT_EQ(a.issuer, b.issuer) << "row " << row;
  EXPECT_EQ(a.not_valid_before, b.not_valid_before) << "row " << row;
  EXPECT_EQ(a.not_valid_after, b.not_valid_after) << "row " << row;
  EXPECT_EQ(a.key_alg, b.key_alg) << "row " << row;
  EXPECT_EQ(a.key_length, b.key_length) << "row " << row;
  EXPECT_EQ(a.san_dns, b.san_dns) << "row " << row;
  EXPECT_EQ(a.san_email, b.san_email) << "row " << row;
  EXPECT_EQ(a.san_uri, b.san_uri) << "row " << row;
  EXPECT_EQ(a.san_ip, b.san_ip) << "row " << row;
  EXPECT_EQ(a.cert_der, b.cert_der) << "row " << row;
}

enum class FieldKind { kTime, kPort, kCount, kScalar, kBool, kVector };

FieldKind ssl_field_kind(std::string_view name) {
  if (name == "ts") return FieldKind::kTime;
  if (name == "id.orig_p" || name == "id.resp_p") return FieldKind::kPort;
  if (name == "established") return FieldKind::kBool;
  if (name == "cert_chain_fuids" || name == "client_cert_chain_fuids") {
    return FieldKind::kVector;
  }
  return FieldKind::kScalar;
}

FieldKind x509_field_kind(std::string_view name) {
  if (name == "certificate.not_valid_before" ||
      name == "certificate.not_valid_after") {
    return FieldKind::kTime;
  }
  if (name == "certificate.version" || name == "certificate.key_length") {
    return FieldKind::kCount;
  }
  if (name.substr(0, 4) == "san.") return FieldKind::kVector;
  return FieldKind::kScalar;
}

/// A raw (already-escaped) field value drawn from a pool that covers the
/// interesting cases: unset, (empty), every escape the writer emits,
/// lone backslashes, and literal commas inside scalars.
std::string random_raw(FieldKind kind, std::mt19937& rng) {
  auto pick = [&rng](std::initializer_list<const char*> pool) {
    std::uniform_int_distribution<std::size_t> dist(0, pool.size() - 1);
    return std::string(*(pool.begin() + dist(rng)));
  };
  switch (kind) {
    case FieldKind::kTime:
      return pick({"1700000000.123456", "5.0", "123.000000", "0.0"});
    case FieldKind::kPort:
      return pick({"443", "0", "65535", "-", "8443"});
    case FieldKind::kCount:
      return pick({"3", "-", "1024", "0"});
    case FieldKind::kBool:
      return pick({"T", "F", "-"});
    case FieldKind::kScalar:
      return pick({"plain", "-", "(empty)", "a\\x09b", "back\\x5cslash",
                   "comma, literal", "ends\\x5c", "lone\\backslash",
                   "TLSv12", "crl\\x0aafter"});
    case FieldKind::kVector:
      return pick({"-", "(empty)", "F1abcdefabcdefabcd",
                   "F1abcdefabcdefabcd,F2abcdefabcdefabcd",
                   "F\\x2cmid,Fplain", "F\\x5ctail,F2", "one,two,three"});
  }
  return "-";
}

std::vector<std::string> ssl_columns() {
  return {"ts",           "uid",       "id.orig_h",
          "id.orig_p",    "id.resp_h", "id.resp_p",
          "version",      "server_name", "established",
          "cert_chain_fuids", "client_cert_chain_fuids", "extra_col"};
}

std::vector<std::string> x509_columns() {
  return {"fuid",
          "certificate.version",
          "certificate.serial",
          "certificate.subject",
          "certificate.issuer",
          "certificate.not_valid_before",
          "certificate.not_valid_after",
          "certificate.key_alg",
          "certificate.key_length",
          "san.dns",
          "san.email",
          "san.uri",
          "san.ip",
          "cert_der",
          "extra_col"};
}

struct GeneratedLog {
  std::string text;    // full log, header + body
  std::string header;  // leading '#' block (newline-terminated)
  std::string body;    // data rows (and any mid-body comments)
};

/// Builds a log with a shuffled column order and randomized raw values.
/// `crlf` terminates every line with "\r\n" instead of "\n".
template <typename KindFn>
GeneratedLog generate_log(std::vector<std::string> columns,
                          const KindFn& kind_of, std::size_t rows,
                          std::mt19937& rng, bool crlf) {
  std::shuffle(columns.begin(), columns.end(), rng);
  const std::string eol = crlf ? "\r\n" : "\n";
  GeneratedLog log;
  log.header = "#separator \\x09" + eol + "#path\ttest" + eol + "#fields";
  for (const auto& name : columns) log.header += "\t" + name;
  log.header += eol;
  for (std::size_t i = 0; i < rows; ++i) {
    std::string line;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c) line += '\t';
      if (columns[c] == "extra_col") {
        line += "junk\\x09junk";  // unknown column: ignored by the plans
      } else {
        line += random_raw(kind_of(columns[c]), rng);
      }
    }
    log.body += line + eol;
    if (i == rows / 2) {
      // A mid-body comment (Zeek writes #close footers); and a second
      // #fields line, which first-#fields-wins must ignore.
      log.body += "#close\t2024-01-01" + eol;
      log.body += "#fields\tbogus\tcolumns" + eol;
    }
  }
  log.text = log.header + log.body;
  return log;
}

// --- parity property tests -------------------------------------------------

TEST(ZeekParseParity, SslFastMatchesReferenceAcrossShuffledSchemas) {
  std::mt19937 rng(20240805);
  for (int trial = 0; trial < 30; ++trial) {
    const bool crlf = trial % 3 == 0;
    const auto log = generate_log(ssl_columns(), ssl_field_kind, 25, rng, crlf);
    std::istringstream fast_in(log.text);
    std::istringstream ref_in(log.text);
    zeek::LogParseError fast_err, ref_err;
    const auto fast = zeek::parse_ssl_log(fast_in, &fast_err);
    const auto ref = zeek::parse_ssl_log_reference(ref_in, &ref_err);
    ASSERT_EQ(fast.has_value(), ref.has_value()) << "trial " << trial;
    ASSERT_TRUE(fast.has_value())
        << "trial " << trial << ": " << fast_err.message;
    ASSERT_EQ(fast->size(), ref->size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast->size(); ++i) {
      expect_equal((*fast)[i], (*ref)[i], i);
    }
  }
}

TEST(ZeekParseParity, X509FastMatchesReferenceAcrossShuffledSchemas) {
  std::mt19937 rng(20240806);
  for (int trial = 0; trial < 30; ++trial) {
    const bool crlf = trial % 4 == 0;
    const auto log =
        generate_log(x509_columns(), x509_field_kind, 25, rng, crlf);
    std::istringstream fast_in(log.text);
    std::istringstream ref_in(log.text);
    zeek::LogParseError fast_err, ref_err;
    const auto fast = zeek::parse_x509_log(fast_in, &fast_err);
    const auto ref = zeek::parse_x509_log_reference(ref_in, &ref_err);
    ASSERT_EQ(fast.has_value(), ref.has_value()) << "trial " << trial;
    ASSERT_TRUE(fast.has_value())
        << "trial " << trial << ": " << fast_err.message;
    ASSERT_EQ(fast->size(), ref->size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast->size(); ++i) {
      expect_equal((*fast)[i], (*ref)[i], i);
    }
  }
}

TEST(ZeekParseParity, ChunkBoundarySplitsReproduceTheSerialParse) {
  std::mt19937 rng(7);
  const auto log = generate_log(ssl_columns(), ssl_field_kind, 40, rng,
                                /*crlf=*/false);
  const zeek::SslPlan plan =
      zeek::SslPlan::compile(zeek::ColumnPlan::from_header(log.header));
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.missing, nullptr);

  std::vector<zeek::SslRecord> whole;
  ASSERT_TRUE(zeek::parse_ssl_records(log.body, plan, whole));

  // Split the body at every record boundary: parsing the two halves as
  // separate batches into one vector must reproduce the serial parse.
  std::vector<std::size_t> cuts;
  for (std::size_t pos = log.body.find('\n'); pos != std::string::npos;
       pos = log.body.find('\n', pos + 1)) {
    cuts.push_back(pos + 1);
  }
  for (const std::size_t cut : cuts) {
    std::vector<zeek::SslRecord> split;
    const std::string_view body(log.body);
    ASSERT_TRUE(zeek::parse_ssl_records(body.substr(0, cut), plan, split));
    ASSERT_TRUE(zeek::parse_ssl_records(body.substr(cut), plan, split));
    ASSERT_EQ(split.size(), whole.size()) << "cut at " << cut;
    for (std::size_t i = 0; i < split.size(); ++i) {
      expect_equal(split[i], whole[i], i);
    }
  }
}

// --- column manifest --------------------------------------------------------

/// Every field `columns` requests equals the full parse's; every other
/// field keeps its default.
void expect_requested_equal(const zeek::SslRecord& full,
                            const zeek::SslRecord& got,
                            const zeek::SslColumns& columns, std::size_t row) {
  const zeek::SslRecord none;
  const auto& want = [&](bool requested) -> const zeek::SslRecord& {
    return requested ? full : none;
  };
  EXPECT_EQ(got.ts, want(columns.ts).ts) << "row " << row;
  EXPECT_EQ(got.uid, want(columns.uid).uid) << "row " << row;
  EXPECT_EQ(got.orig_h, want(columns.endpoints).orig_h) << "row " << row;
  EXPECT_EQ(got.orig_p, want(columns.endpoints).orig_p) << "row " << row;
  EXPECT_EQ(got.resp_h, want(columns.endpoints).resp_h) << "row " << row;
  EXPECT_EQ(got.resp_p, want(columns.endpoints).resp_p) << "row " << row;
  EXPECT_EQ(got.version, want(columns.version).version) << "row " << row;
  EXPECT_EQ(got.server_name, want(columns.server_name).server_name)
      << "row " << row;
  EXPECT_EQ(got.established, want(columns.established).established)
      << "row " << row;
  EXPECT_EQ(got.cert_chain_fuids, want(columns.chains).cert_chain_fuids)
      << "row " << row;
  EXPECT_EQ(got.client_cert_chain_fuids,
            want(columns.chains).client_cert_chain_fuids)
      << "row " << row;
}

/// Rewrites some data rows of `body` into malformed ones: a bad numeric
/// in a required numeric column, or a missing last field.
std::string with_bad_rows(const std::string& header, const std::string& body,
                          std::mt19937& rng) {
  const auto columns = zeek::ColumnPlan::from_header(header);
  const std::size_t numeric[] = {columns.index_of("ts"),
                                 columns.index_of("id.orig_p"),
                                 columns.index_of("id.resp_p")};
  std::string out;
  std::size_t row = 0;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t nl = body.find('\n', pos);
    std::string line = body.substr(pos, nl - pos);
    pos = nl == std::string::npos ? body.size() : nl + 1;
    if (!line.empty() && line.front() != '#' && ++row % 5 == 0) {
      if (row % 10 == 0) {
        line.erase(line.rfind('\t'));  // field count mismatch
      } else {
        // Replace one numeric field's value with a non-number.
        const std::size_t target = numeric[rng() % 3];
        std::size_t begin = 0;
        for (std::size_t i = 0; i < target; ++i) {
          begin = line.find('\t', begin) + 1;
        }
        const std::size_t end = line.find('\t', begin);
        line.replace(begin, end == std::string::npos ? end : end - begin,
                     "12x");
      }
    }
    out += line + "\n";
  }
  return out;
}

const zeek::SslColumns kManifests[] = {zeek::SslColumns::all(),
                                       zeek::SslColumns::pipeline(),
                                       zeek::SslColumns::upgrades()};

TEST(ZeekParseManifest, StrictErrorsAndFieldsMatchTheFullParse) {
  std::mt19937 rng(20250117);
  for (int trial = 0; trial < 20; ++trial) {
    const auto log = generate_log(ssl_columns(), ssl_field_kind, 30, rng,
                                  /*crlf=*/trial % 4 == 0);
    const zeek::SslPlan plan =
        zeek::SslPlan::compile(zeek::ColumnPlan::from_header(log.header));
    // Odd trials carry malformed rows: the strict parse stops at the
    // first, and must stop there with the same error under any manifest.
    const std::string body =
        trial % 2 == 0 ? log.body : with_bad_rows(log.header, log.body, rng);
    std::vector<zeek::SslRecord> full;
    zeek::LogParseError full_error;
    const bool full_ok =
        zeek::parse_ssl_records(body, plan, full, &full_error, 3);
    ASSERT_EQ(full_ok, trial % 2 == 0) << "trial " << trial;
    for (const auto& columns : kManifests) {
      std::vector<zeek::SslRecord> got;
      zeek::LogParseError error;
      EXPECT_EQ(zeek::parse_ssl_records(body, plan, got, &error, 3, columns),
                full_ok)
          << "trial " << trial;
      EXPECT_EQ(error.line, full_error.line) << "trial " << trial;
      EXPECT_EQ(error.message, full_error.message) << "trial " << trial;
      if (!full_ok) continue;  // `out` is unspecified after a failure
      ASSERT_EQ(got.size(), full.size()) << "trial " << trial;
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_requested_equal(full[i], got[i], columns, i);
      }
    }
  }
}

TEST(ZeekParseManifest, TolerantQuarantineAndFieldsMatchTheFullParse) {
  std::mt19937 rng(20250118);
  for (int trial = 0; trial < 20; ++trial) {
    const auto log = generate_log(ssl_columns(), ssl_field_kind, 40, rng,
                                  /*crlf=*/trial % 3 == 0);
    const zeek::SslPlan plan =
        zeek::SslPlan::compile(zeek::ColumnPlan::from_header(log.header));
    const std::string body = with_bad_rows(log.header, log.body, rng);
    std::vector<zeek::SslRecord> full;
    std::vector<zeek::RowIssue> full_issues;
    const auto full_stats = zeek::parse_ssl_records_tolerant(
        body, plan, full, &full_issues, 3, 1000);
    ASSERT_GT(full_stats.rows_bad, 0u);
    for (const auto& columns : kManifests) {
      std::vector<zeek::SslRecord> got;
      std::vector<zeek::RowIssue> issues;
      const auto stats = zeek::parse_ssl_records_tolerant(
          body, plan, got, &issues, 3, 1000, columns);
      EXPECT_EQ(stats.rows_ok, full_stats.rows_ok) << "trial " << trial;
      EXPECT_EQ(stats.rows_bad, full_stats.rows_bad) << "trial " << trial;
      EXPECT_EQ(stats.lines, full_stats.lines) << "trial " << trial;
      ASSERT_EQ(issues.size(), full_issues.size()) << "trial " << trial;
      for (std::size_t i = 0; i < issues.size(); ++i) {
        EXPECT_EQ(issues[i].line, full_issues[i].line);
        EXPECT_EQ(issues[i].byte_offset, full_issues[i].byte_offset);
        EXPECT_EQ(issues[i].raw_length, full_issues[i].raw_length);
        EXPECT_EQ(issues[i].reason, full_issues[i].reason);
        EXPECT_EQ(issues[i].digest, full_issues[i].digest);
      }
      ASSERT_EQ(got.size(), full.size()) << "trial " << trial;
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_requested_equal(full[i], got[i], columns, i);
      }
    }
  }
}

// --- intern dictionary -----------------------------------------------------

/// The handle the global arena gives for `bytes`: what every parsed Str
/// must be, pointer for pointer.
const char* arena_pointer(std::string_view bytes) {
  return colfmt::StringArena::global().intern(bytes).data();
}

void expect_arena_handle(const colfmt::Str& got, std::string_view want) {
  EXPECT_EQ(got.view(), want);
  if (!want.empty()) {
    EXPECT_EQ(got.data(), arena_pointer(want)) << "not the arena's handle";
  }
}

TEST(ZeekParseDictionary, HandlesAreTheGlobalArenasPointers) {
  // Every row brings fresh addresses, an SNI and a two-fuid chain, so the
  // body holds several times more distinct strings than rows: far more
  // than the table's initial size (about one slot per row, kept at most
  // half full), so it must grow. Every fourth row repeats row 0's values,
  // exercising lookups that hit.
  constexpr std::size_t kRows = 300;
  std::string body;
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::size_t v = i % 4 == 0 ? 0 : i;
    const std::string n = std::to_string(v);
    body += "1.0\tC" + std::to_string(i) + "\t10.9." + n + "\t1\t10.8." + n +
            "\t443\t" + (i % 3 == 0 ? "-" : "TLSv1\\x2e" + n) +
            "\tsni\\x09" + n + ".test\tT\tFleaf" + n + ",Fmid" + n + "\t" +
            (i % 2 == 0 ? "(empty)" : "Fcli" + n) + "\n";
  }
  const zeek::SslPlan plan = zeek::SslPlan::compile(
      zeek::ColumnPlan::from_fields_payload(
          "ts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tversion"
          "\tserver_name\testablished\tcert_chain_fuids"
          "\tclient_cert_chain_fuids"));
  std::vector<zeek::SslRecord> out;
  ASSERT_TRUE(zeek::parse_ssl_records(body, plan, out));
  ASSERT_EQ(out.size(), kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::size_t v = i % 4 == 0 ? 0 : i;
    const std::string n = std::to_string(v);
    const auto& r = out[i];
    expect_arena_handle(r.orig_h, "10.9." + n);
    expect_arena_handle(r.resp_h, "10.8." + n);
    expect_arena_handle(r.version, i % 3 == 0 ? "" : "TLSv1." + n);
    expect_arena_handle(r.server_name, "sni\t" + n + ".test");
    ASSERT_EQ(r.cert_chain_fuids.size(), 2u);
    expect_arena_handle(r.cert_chain_fuids[0], "Fleaf" + n);
    expect_arena_handle(r.cert_chain_fuids[1], "Fmid" + n);
    if (i % 2 == 0) {
      EXPECT_TRUE(r.client_cert_chain_fuids.empty());
    } else {
      ASSERT_EQ(r.client_cert_chain_fuids.size(), 1u);
      expect_arena_handle(r.client_cert_chain_fuids[0], "Fcli" + n);
    }
  }

  // x509 rows go through the same dictionary: escaped DNs, a literal
  // "(empty)" scalar and an unset serial.
  const std::string x509_body =
      "Fa\tCN=a\\x2cO=x\t(empty)\t-\n"
      "Fb\tCN=a\\x2cO=x\tCN=root\tAB01\n";
  const zeek::X509Plan x509_plan = zeek::X509Plan::compile(
      zeek::ColumnPlan::from_fields_payload(
          "fuid\tcertificate.subject\tcertificate.issuer"
          "\tcertificate.serial"));
  std::vector<zeek::X509Record> certs;
  ASSERT_TRUE(zeek::parse_x509_records(x509_body, x509_plan, certs));
  ASSERT_EQ(certs.size(), 2u);
  expect_arena_handle(certs[0].fuid, "Fa");
  expect_arena_handle(certs[0].subject, "CN=a,O=x");
  expect_arena_handle(certs[0].issuer, "(empty)");
  expect_arena_handle(certs[0].serial, "");
  expect_arena_handle(certs[1].subject, "CN=a,O=x");
  expect_arena_handle(certs[1].issuer, "CN=root");
  expect_arena_handle(certs[1].serial, "AB01");
}

// --- concurrent chunk parses -----------------------------------------------

TEST(ZeekParseConcurrency, FourThreadsOnDisjointQuartersMatchTheSerialParse) {
  // Parsers on four threads each own a dictionary but share the global
  // arena; their handles must be the very pointers the serial parse got.
  std::mt19937 rng(20250119);
  std::string body;
  constexpr std::size_t kRows = 4000;
  for (std::size_t i = 0; i < kRows; ++i) {
    // A small repeated pool plus a fresh value per row, so the threads
    // both hit their dictionaries and race on arena misses.
    const std::string pool = std::to_string(rng() % 50);
    const std::string fresh = std::to_string(i);
    body += std::to_string(1700000000 + i) + ".5\tC" + fresh + "\t10.0.0." +
            pool + "\t" + std::to_string(1000 + i % 60000) + "\t192.0.2." +
            fresh + "\t443\tTLSv12\thost" + pool + ".test\t" +
            (i % 7 == 0 ? "F" : "T") + "\tFleaf" + fresh + ",Fca" + pool +
            "\t" + (i % 3 == 0 ? "Fcli" + pool : std::string("-")) + "\n";
  }
  const zeek::SslPlan plan = zeek::SslPlan::compile(
      zeek::ColumnPlan::from_fields_payload(
          "ts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tversion"
          "\tserver_name\testablished\tcert_chain_fuids"
          "\tclient_cert_chain_fuids"));

  // Record-aligned quarters: each cut sits just after a newline.
  std::vector<std::size_t> cuts = {0};
  for (std::size_t q = 1; q < 4; ++q) {
    cuts.push_back(body.find('\n', body.size() * q / 4) + 1);
  }
  cuts.push_back(body.size());
  const std::string_view view(body);
  std::vector<std::vector<zeek::SslRecord>> parts(4);
  std::vector<zeek::TolerantStats> stats(4);
  std::vector<std::thread> threads;
  for (std::size_t q = 0; q < 4; ++q) {
    threads.emplace_back([&, q] {
      stats[q] = zeek::parse_ssl_records_tolerant(
          view.substr(cuts[q], cuts[q + 1] - cuts[q]), plan, parts[q],
          nullptr);
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<zeek::SslRecord> serial;
  ASSERT_TRUE(zeek::parse_ssl_records(body, plan, serial));
  ASSERT_EQ(serial.size(), kRows);
  std::size_t row = 0;
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_EQ(stats[q].rows_bad, 0u);
    EXPECT_EQ(stats[q].rows_ok, parts[q].size());
    for (const auto& got : parts[q]) {
      ASSERT_LT(row, serial.size());
      const auto& want = serial[row];
      expect_equal(got, want, row);
      EXPECT_EQ(got.orig_h.data(), want.orig_h.data()) << "row " << row;
      EXPECT_EQ(got.resp_h.data(), want.resp_h.data()) << "row " << row;
      EXPECT_EQ(got.server_name.data(), want.server_name.data())
          << "row " << row;
      EXPECT_EQ(got.cert_chain_fuids[0].data(),
                want.cert_chain_fuids[0].data())
          << "row " << row;
      ++row;
    }
  }
  EXPECT_EQ(row, serial.size());
}

// --- exact decode semantics ------------------------------------------------

TEST(ZeekParseSemantics, EscapesUnsetAndEmptyDecodeExactly) {
  const std::string text =
      "#fields\tuid\tts\tid.resp_p\tserver_name\tid.orig_h\tid.orig_p"
      "\tid.resp_h\testablished\tversion\tcert_chain_fuids"
      "\tclient_cert_chain_fuids\n"
      "CABC\t12.5\t443\ttab\\x09here\t10.0.0.1\t51000\t10.0.0.2\tT\t-"
      "\tF1,F\\x2cmid,F\\x5cslash\t(empty)\n"
      "CDEF\t13.0\t-\t(empty)\t10.0.0.3\t51001\t10.0.0.4\tF\tTLSv13\t-"
      "\tlone\\backslash\n";
  std::istringstream in(text);
  const auto parsed = zeek::parse_ssl_log(in);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  const auto& r0 = (*parsed)[0];
  EXPECT_EQ(r0.uid, "CABC");
  EXPECT_EQ(r0.ts, 12);
  EXPECT_EQ(r0.resp_p, 443);
  EXPECT_EQ(r0.server_name, "tab\there");  // \x09 unescapes to TAB
  EXPECT_EQ(r0.version, "");               // "-" is unset
  EXPECT_TRUE(r0.established);
  EXPECT_EQ(r0.cert_chain_fuids,
            (std::vector<colfmt::Str>{"F1", "F,mid", "F\\slash"}));
  EXPECT_TRUE(r0.client_cert_chain_fuids.empty());
  const auto& r1 = (*parsed)[1];
  EXPECT_EQ(r1.resp_p, 0);                  // "-" port parses as 0
  EXPECT_EQ(r1.server_name, "(empty)");     // scalar "(empty)" stays literal
  EXPECT_FALSE(r1.established);
  EXPECT_TRUE(r1.cert_chain_fuids.empty());
  EXPECT_EQ(r1.client_cert_chain_fuids,
            (std::vector<colfmt::Str>{"lone\\backslash"}));
}

TEST(ZeekParseSemantics, DataRowBeforeHeaderFailsBothPaths) {
  const std::string text = "#path\tssl\nrow before header\n";
  {
    std::istringstream in(text);
    zeek::LogParseError error;
    EXPECT_FALSE(zeek::parse_ssl_log(in, &error).has_value());
    EXPECT_EQ(error.message, "data row before #fields header");
    EXPECT_EQ(error.line, 2u);
  }
  {
    std::istringstream in(text);
    zeek::LogParseError error;
    EXPECT_FALSE(zeek::parse_ssl_log_reference(in, &error).has_value());
    EXPECT_EQ(error.message, "data row before #fields header");
    EXPECT_EQ(error.line, 2u);
  }
}

TEST(ZeekParseSemantics, FirstFieldsLineWinsInBothPaths) {
  // The second #fields line must be treated as a comment (it would
  // otherwise remap — and here break — every row).
  const std::string text =
      "#fields\tfuid\tcertificate.serial\n"
      "Fone\tAA01\n"
      "#fields\tcertificate.serial\tfuid\n"
      "Ftwo\tAA02\n";
  std::istringstream fast_in(text);
  std::istringstream ref_in(text);
  const auto fast = zeek::parse_x509_log(fast_in);
  const auto ref = zeek::parse_x509_log_reference(ref_in);
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(ref.has_value());
  ASSERT_EQ(fast->size(), 2u);
  ASSERT_EQ(ref->size(), 2u);
  EXPECT_EQ((*fast)[1].fuid, "Ftwo");
  EXPECT_EQ((*fast)[1].serial, "AA02");
  for (std::size_t i = 0; i < 2; ++i) expect_equal((*fast)[i], (*ref)[i], i);
}

TEST(ZeekParseSemantics, ErrorLineNumbersCountPhysicalLines) {
  const std::string text =
      "#separator \\x09\n"
      "#path\tssl\n"
      "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\n"
      "1.0\tC1\t10.0.0.1\t1\t10.0.0.2\t2\n"
      "short\trow\n";
  std::istringstream in(text);
  zeek::LogParseError error;
  EXPECT_FALSE(zeek::parse_ssl_log(in, &error).has_value());
  EXPECT_EQ(error.message, "field count mismatch");
  EXPECT_EQ(error.line, 5u);  // physical line, header included
}

// --- plan compiler ---------------------------------------------------------

TEST(ZeekParsePlan, MissingRequiredFieldsReportInLegacyOrder) {
  const auto plan_no_ts = zeek::SslPlan::compile(
      zeek::ColumnPlan::from_fields_payload("uid\tid.orig_h"));
  ASSERT_NE(plan_no_ts.missing, nullptr);
  EXPECT_STREQ(plan_no_ts.missing, "ts");

  const auto plan_no_uid = zeek::SslPlan::compile(
      zeek::ColumnPlan::from_fields_payload(
          "ts\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p"));
  ASSERT_NE(plan_no_uid.missing, nullptr);
  EXPECT_STREQ(plan_no_uid.missing, "uid");

  const auto x509 =
      zeek::X509Plan::compile(zeek::ColumnPlan::from_fields_payload("san.dns"));
  ASSERT_NE(x509.missing, nullptr);
  EXPECT_STREQ(x509.missing, "fuid");
}

TEST(ZeekParsePlan, FromHeaderFindsFirstFieldsLine) {
  const auto plan = zeek::ColumnPlan::from_header(
      "#separator \\x09\n#fields\ta\tb\tc\n#types\tx\ty\tz\n");
  ASSERT_TRUE(plan.valid());
  EXPECT_EQ(plan.column_count(), 3u);
  EXPECT_EQ(plan.index_of("b"), 1u);
  EXPECT_EQ(plan.index_of("nope"), zeek::kNoColumn);
  EXPECT_FALSE(zeek::ColumnPlan::from_header("#path\tssl\n").valid());
}

TEST(ZeekParsePlan, SplitFieldsReportsTotalCountPastCapacity) {
  std::string_view out[2];
  EXPECT_EQ(zeek::split_fields("a\tb\tc\td", out, 2), 4u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "b");
  EXPECT_EQ(zeek::split_fields("", out, 2), 1u);  // one empty field
  EXPECT_EQ(out[0], "");
}

// --- allocation guarantee --------------------------------------------------

TEST(ZeekParseAlloc, TokenizerAndDecodeAreAllocationFreeWithoutEscapes) {
  const std::string_view line =
      "1700000000.123456\tCX1abcdef\t10.1.2.3\t51234\t93.184.216.34\t443"
      "\tTLSv12\texample.test\tT\tF1abcdefabcdefabcd\t-";
  std::string_view fields[16];
  std::string storage;
  storage.reserve(64);  // pre-warmed; must not be touched on this input
  std::size_t checksum = 0;

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int iter = 0; iter < 1000; ++iter) {
    const std::size_t count = zeek::split_fields(line, fields, 16);
    for (std::size_t i = 0; i < count && i < 16; ++i) {
      checksum += zeek::decode_field(fields[i], storage).size();
    }
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "tokenize+decode allocated on escape-free input";
  EXPECT_GT(checksum, 0u);
}

TEST(ZeekParseAlloc, DecodeFieldUnescapesOnlyWhenEscapesArePresent) {
  std::string storage;
  const std::string_view plain = "no-escapes-here";
  // Zero-copy: the returned view must alias the input, not the storage.
  const std::string_view out = zeek::decode_field(plain, storage);
  EXPECT_EQ(out.data(), plain.data());
  EXPECT_EQ(zeek::decode_field("a\\x09b", storage), "a\tb");
  EXPECT_EQ(zeek::decode_field("trailing\\x5c", storage), "trailing\\");
  EXPECT_EQ(zeek::decode_field("bad\\xZZ", storage), "bad\\xZZ");
}

}  // namespace
