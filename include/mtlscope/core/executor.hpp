// PipelineExecutor: partition-then-merge execution of the measurement
// pipeline (the shape Internet-scale TLS measurement studies use to reach
// billions of records). A trace — an in-memory Zeek dataset or an
// ssl.log/x509.log text pair — is split into K contiguous shards; one
// shard-local Pipeline runs per worker thread (std::thread, no external
// dependencies); shard states merge deterministically in shard order, so
// the result is bit-identical to the serial run for any K.
//
// Execution phases:
//   A  certificate registry: CertFacts for every x509 row, built in
//      parallel over row ranges against the shared Enricher (thread-safe
//      issuer-category memo).
//   B  chain upgrades: whole-stream pass marking leaves public when any
//      connection carries a public intermediate for them (§3.2.1) —
//      monotonic, so a single pre-pass equals the streaming fixpoint.
//      It reads only the established flag and the two chains
//      (zeek::SslColumns::upgrades(), for TSV and container alike).
//   C  interception pre-pass (when CT is configured): shard-local
//      candidate maps (issuer → distinct CT-mismatching SLDs) merged by
//      set union; issuers at or above the confirmation threshold form the
//      frozen confirmed set. Exclusion therefore applies to *all* of a
//      confirmed issuer's connections regardless of stream position —
//      the order-independent semantics finalize() reconciles the
//      streaming pipeline toward.
//   D  shard run: K prepared-mode Pipelines over contiguous ssl slices,
//      each with its own per-shard observers. Observers never share
//      state across shards, so phase D takes no lock: accumulators keep
//      one slot per shard (Sharded<A>) and fold after the run.
//   E  merge: shard registries, totals, and analyzer states fold into one
//      Pipeline in shard order; finalize() flags interception certs.
//
// Two input paths drive the same phases:
//   * in-memory (run / run_logs): records or log text already resident;
//   * streaming (run_log_files / run_sources): logs stay on disk. Each
//     pre-pass is queue-fed — one reader thread cuts the mmap'd file into
//     record-aligned chunks, K workers parse them, and a bounded reorder
//     window re-sequences results so order-sensitive phases (A's
//     first-fuid-wins, B's serial upgrades) see them in exact stream
//     order. B's workers forward only the chains an upgrade can change,
//     not records. Phase D streams static record-aligned byte ranges, one
//     per shard; phases C and D parse without uid
//     (zeek::SslColumns::pipeline()). Every parse call interns through
//     its own chunk dictionary, so the workers meet on the global
//     StringArena's locks only for a chunk's first sight of a value. Peak resident memory is O(chunk_bytes × (queue_depth + K))
//     plus the certificate registry — never O(file size) — and the output
//     is byte-identical to the in-memory path.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/error_ledger.hpp"
#include "mtlscope/core/pipeline.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/ingest/chunker.hpp"
#include "mtlscope/ingest/error.hpp"
#include "mtlscope/ingest/source.hpp"
#include "mtlscope/zeek/log_io.hpp"

namespace mtlscope::colfmt {
class ContainerReader;
}

namespace mtlscope::core {

/// Input-scan strategy for container runs (DESIGN §15):
///  * kRows     — decode every block into record vectors, then run the
///                in-memory phases (the historical path);
///  * kColumnar — zero-materialization: phase B/D walk the packed block
///                columns in place through colfmt::SslBlockScan, feeding
///                one reused record per row and pruning columns with the
///                same zeek::SslColumns manifests the TSV path parses
///                with (upgrades() for B, pipeline() for D);
///  * kAuto     — columnar when eligible, rows otherwise.
/// The columnar path requires no CT database (phase C re-streams full
/// records); a forced kColumnar run with CT configured falls back to
/// rows. Results are byte-identical across modes by construction: both
/// feed the same records through the same phases in the same stream
/// order, partitioned contiguously.
enum class ScanMode { kAuto, kRows, kColumnar };

class PipelineExecutor {
 public:
  using Observer = Pipeline::Observer;
  /// Builds one observer per shard (analyzer states stay thread-local).
  using ObserverFactory = std::function<Observer(std::size_t shard)>;

  /// `threads` = 0 → hardware concurrency. Shard count equals the thread
  /// count; threads == 1 runs everything inline on the caller's thread.
  explicit PipelineExecutor(PipelineConfig config, std::size_t threads = 0);

  /// 0 → std::thread::hardware_concurrency() (≥ 1).
  static std::size_t resolve_threads(std::size_t requested);
  std::size_t shard_count() const { return threads_; }

  /// Per-shard observers: the factory runs once per shard; each returned
  /// observer only ever fires on its own shard's thread, so observers
  /// need no locking. Every observer is per-shard: an accumulator keeps
  /// one slot per shard (see attach()) and folds them after run().
  void add_observer_factory(ObserverFactory factory);

  /// Attaches one analyzer instance per shard; merge with
  /// std::move(sharded).merged() after run(). `sharded` must outlive the
  /// run and have size() == shard_count().
  template <typename A>
    requires ConnectionAnalyzer<A>
  void attach(Sharded<A>& sharded) {
    add_observer_factory([&sharded](std::size_t shard) {
      return [analyzer = &sharded.shard(shard)](
                 const EnrichedConnection& conn) { analyzer->observe(conn); };
    });
  }

  /// Runs the five phases over an in-memory dataset and returns the merged,
  /// finalized pipeline.
  Pipeline run(const zeek::Dataset& dataset);
  Pipeline run(const std::vector<zeek::SslRecord>& ssl,
               const zeek::Dataset::X509Map& x509);

  /// In-memory log-text entry: wraps both strings in MemorySources and
  /// runs the streaming engine over them (zero extra copies of the text).
  /// Returns nullopt (with `error` filled) on a parse failure. With
  /// `options.errors` in skip mode, malformed rows are quarantined into
  /// `ledger` (when non-null) instead of failing the run.
  std::optional<Pipeline> run_logs(const std::string& ssl_text,
                                   const std::string& x509_text,
                                   zeek::LogParseError* error = nullptr,
                                   const ingest::IngestOptions& options = {},
                                   ErrorLedger* ledger = nullptr);

  /// Streaming entry: mmaps (or buffered-reads) both log files and runs
  /// the phases without ever materializing a file in memory. "-" reads
  /// stdin (spooled to disk). Output is byte-identical to run_logs() on
  /// the same bytes for every thread count and chunk size.
  std::optional<Pipeline> run_log_files(
      const std::string& ssl_path, const std::string& x509_path,
      ingest::IngestError* error = nullptr,
      const ingest::IngestOptions& options = {},
      ErrorLedger* ledger = nullptr);

  /// Same engine over already-opened byte sources (tests, custom inputs).
  /// `ledger` (optional) receives quarantined records, per-phase counts,
  /// and I/O degradation events; it is finalized before returning.
  std::optional<Pipeline> run_sources(const ingest::Source& ssl,
                                      const ingest::Source& x509,
                                      ingest::IngestError* error = nullptr,
                                      const ingest::IngestOptions& options = {},
                                      ErrorLedger* ledger = nullptr);

  /// Compact-container entry (DESIGN §14): decodes the container's
  /// blocks in parallel (each block carries its own dictionary, so K
  /// workers decode K blocks independently), rebuilds the exact record
  /// streams, and runs the in-memory phases over them — byte-identical
  /// to a TSV run over the logs the container was converted from, for
  /// any thread count. The conversion-time ledger stored in the
  /// container is restored: abort mode fails on the first quarantined
  /// row (as the TSV run would); skip mode re-checks the error budget
  /// and hands the ledger to `ledger`.
  std::optional<Pipeline> run_container(
      const colfmt::ContainerReader& reader,
      ingest::IngestError* error = nullptr,
      const ingest::IngestOptions& options = {}, ErrorLedger* ledger = nullptr);

  const PipelineConfig& config() const;

  void set_scan_mode(ScanMode mode) { scan_mode_ = mode; }
  ScanMode scan_mode() const { return scan_mode_; }

  /// Cache effectiveness and scan choice of the most recent completed
  /// run — the JSON perf envelope's `enrich` block. `facts_*` count the
  /// Enricher's DER-keyed certificate memo; `enrich_*` sum the per-shard
  /// host/address memos (EnrichCache) after the shard merge.
  struct RunStats {
    const char* scan = "rows";  ///< which scan drove phase D
    std::uint64_t facts_hits = 0;
    std::uint64_t facts_misses = 0;
    std::uint64_t facts_unique = 0;
    std::uint64_t enrich_hits = 0;
    std::uint64_t enrich_misses = 0;
    std::uint64_t enrich_unique = 0;
  };
  const RunStats& last_run_stats() const { return stats_; }

  /// Fold-to-state entries (mtlscope map / DESIGN §12): run the phases
  /// with every standard analyzer attached and return the complete
  /// serializable shard state — merged finalized pipeline, the eight
  /// analyzer states, and the ledger. The caller fills `meta`. The
  /// executor must not have caller-attached observers for these entries
  /// (their state would be silently dropped).
  ShardState fold(const zeek::Dataset& dataset);
  ShardState fold(const std::vector<zeek::SslRecord>& ssl,
                  const zeek::Dataset::X509Map& x509);
  std::optional<ShardState> fold_log_files(
      const std::string& ssl_path, const std::string& x509_path,
      ingest::IngestError* error = nullptr,
      const ingest::IngestOptions& options = {});
  std::optional<ShardState> fold_container(
      const colfmt::ContainerReader& reader,
      ingest::IngestError* error = nullptr,
      const ingest::IngestOptions& options = {});

 private:
  /// K prepared-mode pipelines, each with its per-shard observers wired.
  std::vector<Pipeline> make_shards(const Pipeline::Prepared& prepared);

  /// The zero-materialization container path (DESIGN §15): phase A
  /// decodes x509 blocks in parallel; phases B and D scan the ssl blocks
  /// column-direct, never materializing the record vectors.
  std::optional<Pipeline> run_container_columnar(
      const colfmt::ContainerReader& reader, ingest::IngestError* error);

  void note_run_stats(const Enricher& enricher, const Pipeline& merged,
                      const char* scan);

  PipelineConfig config_;
  std::size_t threads_;
  std::vector<ObserverFactory> factories_;
  ScanMode scan_mode_ = ScanMode::kAuto;
  RunStats stats_;
};

}  // namespace mtlscope::core
