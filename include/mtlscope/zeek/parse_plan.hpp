// Zero-copy Zeek record parsing: compiled column plans and an
// allocation-free tokenizer over record-aligned byte ranges.
//
// The legacy parser materialized every row as a vector<std::string> and
// probed a map<string, size_t> with a freshly allocated string per column
// per row. This layer compiles the `#fields` header ONCE into a plan of
// direct slot indices, then walks each data line in place with
// string_view tokens. Unescaping is lazy: a field allocates only when a
// `\x` escape byte is actually present (the overwhelmingly common case is
// escape-free, where the token is assigned straight into the record).
//
// Invariants (see DESIGN §10):
//   * The first #fields line wins; later ones are ignored as comments
//     (Zeek never re-declares the schema mid-file). A data row seen
//     before any #fields line is a structured LogParseError.
//   * Error determinism matches the legacy parser byte-for-byte:
//     "field count mismatch" / "data row before #fields header" report
//     physical line numbers (header included via `header_lines`); bad
//     numeric fields report the 1-based data-row index; missing required
//     columns report line 0. Streamed runs keep smallest-offset-wins.
//   * split_fields() and decode_field() never touch the heap for
//     escape-free input (verified by an allocation-counting test).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mtlscope/zeek/records.hpp"

namespace mtlscope::zeek {

struct LogParseError;  // defined in log_io.hpp

/// Slot value for a schema field absent from the #fields header.
inline constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

/// The compiled form of one `#fields` header line: column names in file
/// order. Name→index resolution happens here exactly once per log, never
/// per row.
class ColumnPlan {
 public:
  /// Compiles the payload after "#fields\t" (tab-separated names).
  static ColumnPlan from_fields_payload(std::string_view payload);
  /// Scans a '#'-metadata block for the first #fields line. A header
  /// without one yields an invalid plan (valid() == false), which the
  /// batch parsers turn into the legacy "missing #fields header" /
  /// "data row before #fields header" errors.
  static ColumnPlan from_header(std::string_view header);

  bool valid() const { return valid_; }
  std::size_t column_count() const { return names_.size(); }
  /// kNoColumn when absent. Linear scan: called only at compile time.
  std::size_t index_of(std::string_view name) const;
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  bool valid_ = false;
};

/// ssl.log schema resolved to direct slot indices. ts..resp_p are
/// required (missing → `missing` names the first absent one); the rest
/// default when kNoColumn.
struct SslPlan {
  std::size_t ts = kNoColumn;
  std::size_t uid = kNoColumn;
  std::size_t orig_h = kNoColumn;
  std::size_t orig_p = kNoColumn;
  std::size_t resp_h = kNoColumn;
  std::size_t resp_p = kNoColumn;
  std::size_t version = kNoColumn;
  std::size_t server_name = kNoColumn;
  std::size_t established = kNoColumn;
  std::size_t cert_chain_fuids = kNoColumn;
  std::size_t client_cert_chain_fuids = kNoColumn;
  std::size_t columns = 0;      // expected field count per row
  bool valid = false;           // a #fields header was compiled
  const char* missing = nullptr;  // first missing required field, or null

  static SslPlan compile(const ColumnPlan& columns);
};

/// x509.log schema resolved to slot indices. Only fuid is required.
struct X509Plan {
  std::size_t fuid = kNoColumn;
  std::size_t version = kNoColumn;
  std::size_t serial = kNoColumn;
  std::size_t subject = kNoColumn;
  std::size_t issuer = kNoColumn;
  std::size_t not_valid_before = kNoColumn;
  std::size_t not_valid_after = kNoColumn;
  std::size_t key_alg = kNoColumn;
  std::size_t key_length = kNoColumn;
  std::size_t san_dns = kNoColumn;
  std::size_t san_email = kNoColumn;
  std::size_t san_uri = kNoColumn;
  std::size_t san_ip = kNoColumn;
  std::size_t cert_der = kNoColumn;
  std::size_t columns = 0;
  bool valid = false;
  const char* missing = nullptr;

  static X509Plan compile(const ColumnPlan& columns);
};

/// Splits one data line into its tab-separated raw fields, writing at
/// most `max_fields` views into `out`. Returns the TOTAL field count
/// (which may exceed max_fields — the caller compares it against the
/// plan's column count). Never allocates.
std::size_t split_fields(std::string_view line, std::string_view* out,
                         std::size_t max_fields);

/// Decodes one raw field value: returns `raw` unchanged when it contains
/// no backslash (zero-copy, zero allocation), otherwise unescapes Zeek's
/// `\xNN` sequences into `storage` and returns a view of it. `storage`
/// is reused across calls, so even escaped fields stop allocating once
/// its capacity covers them.
std::string_view decode_field(std::string_view raw, std::string& storage);

/// Parses every data row of `body` (a record-aligned byte range WITHOUT
/// the '#'-metadata header) and appends into the caller-owned `out`.
/// '#' lines inside the body are skipped; CRLF endings are tolerated; a
/// final record without a trailing newline is parsed. `header_lines`
/// offsets physical line numbers in errors so chunked and whole-file
/// parses report identical positions. Returns false with `error` filled
/// on the first malformed row; `out` contents are unspecified then.
///
/// Strings are interned through a dictionary private to the call: a
/// value repeated within `body` resolves there, and only its first
/// occurrence takes a StringArena::global() shard lock. The handles are
/// the global arena's own (pointer-equal to StringArena::global().intern
/// of the same bytes). ssl fields outside `columns` are left default;
/// errors and quarantine do not depend on `columns` (see SslColumns).
bool parse_ssl_records(std::string_view body, const SslPlan& plan,
                       std::vector<SslRecord>& out,
                       LogParseError* error = nullptr,
                       std::size_t header_lines = 0,
                       const SslColumns& columns = SslColumns::all());

bool parse_x509_records(std::string_view body, const X509Plan& plan,
                        std::vector<X509Record>& out,
                        LogParseError* error = nullptr,
                        std::size_t header_lines = 0);

// --- tolerant (best-effort) variants ----------------------------------------

/// One quarantined data row from a tolerant parse. Every field is a pure
/// function of the input bytes — no wall times, no host paths — so
/// quarantine output is byte-stable across threads and chunk sizes.
struct RowIssue {
  /// Physical line number, header included, relative to the parsed body
  /// plus `header_lines` (the stream-order fold rewrites it to an
  /// absolute file line by adding the prior chunks' line counts).
  std::size_t line = 0;
  /// Absolute byte offset of the row's first byte (`base_offset` plus
  /// the row's position within `body`).
  std::size_t byte_offset = 0;
  /// Length of the raw row in bytes (trailing CR/LF excluded).
  std::size_t raw_length = 0;
  /// Structured reason, same vocabulary as the strict parser's errors
  /// ("field count mismatch", "bad numeric field", ...).
  std::string reason;
  /// Hex prefix of the SHA-256 of the raw row bytes: identifies the
  /// quarantined record without copying hostile bytes into reports.
  std::string digest;
};

/// What a tolerant parse covered, so callers can merge chunked results.
struct TolerantStats {
  std::size_t rows_ok = 0;   ///< records appended to `out`
  std::size_t rows_bad = 0;  ///< rows quarantined (counted even when
                             ///< `issues` is null)
  std::size_t lines = 0;     ///< physical lines walked in `body`
};

/// Best-effort counterparts of parse_*_records: malformed rows are
/// appended to `issues` (when non-null) instead of aborting the parse,
/// and every well-formed row still lands in `out`. Divergence from the
/// strict path, by design (DESIGN §11): a #fields line inside the body
/// is never compiled — honouring it would make output depend on how the
/// input was chunked. With an unusable plan every data row is
/// quarantined ("data row before #fields header" / "missing field ...");
/// a rowless body with no plan yields one "missing #fields header"
/// issue.
TolerantStats parse_ssl_records_tolerant(
    std::string_view body, const SslPlan& plan, std::vector<SslRecord>& out,
    std::vector<RowIssue>* issues, std::size_t header_lines = 0,
    std::size_t base_offset = 0,
    const SslColumns& columns = SslColumns::all());

TolerantStats parse_x509_records_tolerant(std::string_view body,
                                          const X509Plan& plan,
                                          std::vector<X509Record>& out,
                                          std::vector<RowIssue>* issues,
                                          std::size_t header_lines = 0,
                                          std::size_t base_offset = 0);

/// Hex prefix (16 chars) of SHA-256(`raw`) — the digest format RowIssue
/// and the error ledger use for quarantined records.
std::string quarantine_digest(std::string_view raw);

}  // namespace mtlscope::zeek
