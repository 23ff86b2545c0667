#include "mtlscope/core/executor.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/scan.hpp"
#include "mtlscope/core/enrich.hpp"
#include "mtlscope/ingest/chunk_queue.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

namespace mtlscope::core {
namespace {

/// Runs fn(shard, begin, end) over K contiguous, balanced ranges of [0, n).
/// K == 1 stays inline on the caller's thread (the exact serial path).
template <typename Fn>
void parallel_ranges(std::size_t n, std::size_t k, const Fn& fn) {
  if (k <= 1) {
    fn(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(k);
  for (std::size_t t = 0; t < k; ++t) {
    const std::size_t begin = n * t / k;
    const std::size_t end = n * (t + 1) / k;
    workers.emplace_back([&fn, t, begin, end] { fn(t, begin, end); });
  }
  for (auto& worker : workers) worker.join();
}

const CertFacts* find_facts(const Pipeline::CertMap& certs,
                            const colfmt::StrVec& fuids) {
  if (fuids.empty()) return nullptr;
  const auto it = certs.find(fuids.front());
  return it == certs.end() ? nullptr : &it->second;
}

/// Phase B's chain-level public upgrade (§3.2.1): the leaf goes public
/// when any intermediate on the chain already is. Upgrades can chain
/// through later connections, so callers apply this serially in stream
/// order.
void upgrade_chain(Pipeline::CertMap& base,
                   std::span<const colfmt::Str> fuids) {
  if (fuids.size() < 2) return;  // no intermediates to inherit from
  const auto leaf_it = base.find(fuids.front());
  if (leaf_it == base.end() ||
      leaf_it->second.issuer_class == trust::IssuerClass::kPublic) {
    return;
  }
  for (std::size_t i = 1; i < fuids.size(); ++i) {
    const auto it = base.find(fuids[i]);
    if (it != base.end() &&
        it->second.issuer_class == trust::IssuerClass::kPublic) {
      leaf_it->second.issuer_class = trust::IssuerClass::kPublic;
      leaf_it->second.issuer_category = IssuerCategory::kPublic;
      return;
    }
  }
}

void apply_upgrades(Pipeline::CertMap& base, const zeek::SslRecord& record) {
  if (!record.established) return;
  upgrade_chain(base, record.cert_chain_fuids);
  upgrade_chain(base, record.client_cert_chain_fuids);
}

/// The chains of a parsed ssl chunk that upgrade_chain can change, in
/// stream order: for each established row its server chain, then its
/// client chain, each kept only with ≥2 fuids. Phase B's workers forward
/// this rather than the records, so the reorder window holds a few
/// handles per row instead of whole records.
struct UpgradeChains {
  std::vector<colfmt::Str> fuids;  ///< every kept chain, concatenated
  std::vector<std::size_t> ends;   ///< one past each chain's last fuid

  void add(const zeek::SslRecord& record) {
    if (!record.established) return;
    keep(record.cert_chain_fuids);
    keep(record.client_cert_chain_fuids);
  }

  void apply(Pipeline::CertMap& base) const {
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      upgrade_chain(base, std::span(fuids).subspan(begin, end - begin));
      begin = end;
    }
  }

 private:
  void keep(const colfmt::StrVec& chain) {
    if (chain.size() < 2) return;
    fuids.insert(fuids.end(), chain.begin(), chain.end());
    ends.push_back(fuids.size());
  }
};

/// Phase C candidate collection: issuer DN → distinct CT-mismatching SLDs.
/// Byte-ordered on interned keys, so merge folds iterate identically to
/// the old string-keyed map.
using CandidateMap =
    std::map<colfmt::Str, Pipeline::StrSet, colfmt::StrLess>;

void note_interception_candidate(const PipelineConfig& config,
                                 const Enricher& enricher,
                                 const Pipeline::CertMap& base,
                                 const zeek::SslRecord& record,
                                 CandidateMap& candidates) {
  if (!record.established) return;
  const CertFacts* server_leaf = find_facts(base, record.cert_chain_fuids);
  if (server_leaf == nullptr ||
      server_leaf->issuer_class != trust::IssuerClass::kPrivate) {
    return;
  }
  const CertFacts* client_leaf =
      find_facts(base, record.client_cert_chain_fuids);
  const EnrichedConnection conn =
      enricher.enrich(record, server_leaf, client_leaf);
  if (conn.sld.empty() || !config.ct->has_domain(conn.sld)) return;
  const auto* issuers = config.ct->issuers_for(conn.sld);
  if (issuers != nullptr &&
      !issuers->contains(server_leaf->issuer_dn.view())) {
    candidates[server_leaf->issuer_dn].insert(conn.sld);
  }
}

Pipeline::StrSet confirm_issuers(const CandidateMap& merged,
                                 std::size_t threshold) {
  Pipeline::StrSet confirmed;
  for (const auto& [issuer, domains] : merged) {
    if (domains.size() >= threshold) confirmed.insert(issuer);
  }
  return confirmed;
}

/// Failure slot shared by the streaming workers. The smallest byte offset
/// wins, so the reported error does not depend on worker scheduling.
struct EngineError {
  std::mutex mutex;
  bool set = false;
  ingest::IngestError error;

  void record(const std::string& file, std::size_t offset,
              std::string reason) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (set && error.byte_offset <= offset) return;
    set = true;
    error = {file, offset, std::move(reason)};
  }

  bool failed() {
    const std::lock_guard<std::mutex> lock(mutex);
    return set;
  }
};

std::string describe_parse_error(const zeek::LogParseError& error) {
  if (error.line == 0) return error.message;
  return error.message + " (line " + std::to_string(error.line) +
         " of the chunk at this offset, header included)";
}

std::size_t header_line_count(const ingest::LogLayout& layout) {
  std::size_t lines = 0;
  for (const char c : layout.header) lines += (c == '\n');
  return lines;
}

/// One queue-fed streaming pass over a log body. A reader thread cuts
/// [layout.body_begin, size) into record-aligned chunks and pushes them
/// into a bounded queue (backpressure); `k` workers pop, run `map_chunk`
/// (parse + shard-local work) and hand the result to a bounded reorder
/// window; the caller's thread folds results back in exact stream order.
/// Peak memory: O(chunk_bytes × (queue_depth + k)) regardless of file
/// size. Returns false if any chunk failed (EngineError filled).
template <typename Result, typename MapFn, typename FoldFn>
bool stream_pass(const ingest::Source& source,
                 const ingest::LogLayout& layout, std::size_t k,
                 const ingest::IngestOptions& options, EngineError& error,
                 const MapFn& map_chunk, const FoldFn& fold) {
  const std::size_t depth =
      options.queue_depth != 0 ? options.queue_depth : 2 * k;
  ingest::ChunkQueue<ingest::Chunk> queue(depth);
  // Window ≥ queue + in-flight chunks: the worker holding the next-needed
  // sequence can always put() without blocking, so the pass cannot wedge.
  ingest::OrderedCollector<Result> collector(depth + k);
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    ingest::RecordChunker chunker(source, options.chunk_bytes,
                                  layout.body_begin, source.size());
    ingest::Chunk chunk;
    std::size_t produced = 0;
    while (!stop.load(std::memory_order_relaxed) && chunker.next(chunk)) {
      if (!queue.push(std::move(chunk))) break;
      ++produced;
      chunk = ingest::Chunk{};  // scratch was moved into the queue
    }
    queue.close();
    collector.finish(produced);
  });

  std::vector<std::thread> workers;
  workers.reserve(k);
  for (std::size_t t = 0; t < k; ++t) {
    workers.emplace_back([&] {
      while (auto chunk = queue.pop()) {
        chunk->rebind();
        Result result{};
        if (!map_chunk(*chunk, result)) {
          // Later chunks already queued still flow through (as empty
          // results) so the reorder window drains; the run aborts after
          // the pass with the smallest failing offset.
          stop.store(true, std::memory_order_relaxed);
        }
        source.release(chunk->offset, chunk->data.size());
        if (!collector.put(chunk->seq, std::move(result))) break;
      }
    });
  }

  while (auto result = collector.take()) {
    fold(std::move(*result));
  }

  reader.join();
  for (auto& worker : workers) worker.join();
  return !error.failed();
}

}  // namespace

PipelineExecutor::PipelineExecutor(PipelineConfig config, std::size_t threads)
    : config_(std::move(config)), threads_(resolve_threads(threads)) {}

std::size_t PipelineExecutor::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void PipelineExecutor::add_observer_factory(ObserverFactory factory) {
  factories_.push_back(std::move(factory));
}

const PipelineConfig& PipelineExecutor::config() const { return config_; }

void PipelineExecutor::note_run_stats(const Enricher& enricher,
                                      const Pipeline& merged,
                                      const char* scan) {
  const auto facts = enricher.facts_cache_stats();
  const EnrichCache& cache = merged.enrich_cache();
  stats_ = RunStats{scan,        facts.hits,   facts.misses, facts.unique,
                    cache.hits,  cache.misses, cache.unique()};
}

std::vector<Pipeline> PipelineExecutor::make_shards(
    const Pipeline::Prepared& prepared) {
  std::vector<Pipeline> shards;
  shards.reserve(threads_);
  for (std::size_t t = 0; t < threads_; ++t) {
    shards.emplace_back(prepared);
    for (const auto& factory : factories_) {
      shards[t].add_observer(factory(t));
    }
  }
  return shards;
}

Pipeline PipelineExecutor::run(const zeek::Dataset& dataset) {
  return run(dataset.ssl(), dataset.x509());
}

Pipeline PipelineExecutor::run(const std::vector<zeek::SslRecord>& ssl,
                               const zeek::Dataset::X509Map& x509) {
  const auto enricher = std::make_shared<const Enricher>(config_);
  const std::size_t k = threads_;

  // --- Phase A: certificate registry, built in parallel row ranges. ---
  std::vector<const zeek::X509Record*> rows;
  rows.reserve(x509.size());
  for (const auto& [fuid, record] : x509) rows.push_back(&record);

  auto base = std::make_shared<Pipeline::CertMap>();
  base->reserve(rows.size());
  {
    std::vector<std::vector<CertFacts>> built(k);
    parallel_ranges(rows.size(), k,
                    [&](std::size_t shard, std::size_t begin,
                        std::size_t end) {
                      auto& out = built[shard];
                      out.reserve(end - begin);
                      for (std::size_t i = begin; i < end; ++i) {
                        out.push_back(enricher->make_facts(*rows[i]));
                      }
                    });
    for (auto& chunk : built) {
      for (auto& facts : chunk) {
        const colfmt::Str fuid = facts.fuid;
        base->emplace(fuid, std::move(facts));
      }
    }
  }

  // --- Phase B: chain-level public upgrades (§3.2.1), whole stream. ---
  // Upgrading is monotonic (private → public, never back), so one pass
  // over every established connection's chains reaches the same fixpoint
  // the streaming pipeline converges to — without the stream-position
  // dependence of upgrading mid-run.
  for (const auto& record : ssl) apply_upgrades(*base, record);

  // --- Phase C: interception pre-pass (when CT is configured). ---
  // Shard-local candidate maps merge by set union; confirmation compares
  // the union against the threshold, so the confirmed set is exactly the
  // set a serial stream (in any order) would eventually confirm.
  auto confirmed = std::make_shared<Pipeline::StrSet>();
  if (config_.ct != nullptr) {
    std::vector<CandidateMap> local(k);
    parallel_ranges(ssl.size(), k,
                    [&](std::size_t shard, std::size_t begin,
                        std::size_t end) {
                      auto& candidates = local[shard];
                      for (std::size_t i = begin; i < end; ++i) {
                        note_interception_candidate(config_, *enricher, *base,
                                                    ssl[i], candidates);
                      }
                    });
    CandidateMap merged;
    for (auto& candidates : local) {
      for (auto& [issuer, domains] : candidates) {
        merged[issuer].insert(domains.begin(), domains.end());
      }
    }
    *confirmed = confirm_issuers(merged, config_.interception_domain_threshold);
  }

  // --- Phase D: one prepared-mode pipeline per shard. ---
  const Pipeline::Prepared prepared{enricher, base, confirmed};
  std::vector<Pipeline> shards = make_shards(prepared);
  parallel_ranges(ssl.size(), k,
                  [&](std::size_t shard, std::size_t begin, std::size_t end) {
                    Pipeline& pipeline = shards[shard];
                    for (std::size_t i = begin; i < end; ++i) {
                      pipeline.add_connection(ssl[i]);
                    }
                  });

  // --- Phase E: deterministic merge in shard order. ---
  Pipeline result(prepared);
  for (auto& shard : shards) result.merge(std::move(shard));
  result.set_interception_issuers(*confirmed);
  result.backfill_certificates(*base);
  result.finalize();
  note_run_stats(*enricher, result, "rows");
  return result;
}

std::optional<Pipeline> PipelineExecutor::run_sources(
    const ingest::Source& ssl, const ingest::Source& x509,
    ingest::IngestError* error, const ingest::IngestOptions& options,
    ErrorLedger* ledger) {
  const auto enricher = std::make_shared<const Enricher>(config_);
  const std::size_t k = threads_;
  EngineError engine_error;
  const bool skip = options.errors.skip();
  // Skip mode always accounts through a ledger: budget enforcement needs
  // the counts even when the caller did not ask for the samples.
  ErrorLedger local_ledger;
  ErrorLedger* const led = ledger != nullptr ? ledger : &local_ledger;

  const ingest::LogLayout x509_layout = ingest::detect_log_layout(x509);
  const ingest::LogLayout ssl_layout = ingest::detect_log_layout(ssl);

  // The column plans are compiled ONCE per source; every chunk then
  // tokenizes its record-aligned bytes in place (no ChunkStream, no
  // per-row string materialization). Error line numbers still count the
  // header lines so reports match the historical chunk-relative numbers.
  const zeek::X509Plan x509_plan =
      zeek::X509Plan::compile(zeek::ColumnPlan::from_header(x509_layout.header));
  const zeek::SslPlan ssl_plan =
      zeek::SslPlan::compile(zeek::ColumnPlan::from_header(ssl_layout.header));
  const std::size_t x509_header_lines = header_line_count(x509_layout);
  const std::size_t ssl_header_lines = header_line_count(ssl_layout);

  // --- Phase A (streaming): parse x509 chunks in parallel, build facts
  // shard-locally, fold into the registry in stream order (duplicate
  // fuids: first record wins, exactly as the in-memory path). This is the
  // authoritative x509 pass: in skip mode its fold is the ONLY place x509
  // quarantine entries are recorded, with chunk-relative issue lines
  // rewritten to absolute file lines via the running line count. ---
  auto base = std::make_shared<Pipeline::CertMap>();
  struct FactsChunk {
    std::vector<CertFacts> facts;
    std::vector<zeek::RowIssue> issues;
    zeek::TolerantStats stats;
  };
  std::size_t x509_lines_before = 0;
  bool ok = stream_pass<FactsChunk>(
      x509, x509_layout, k, options, engine_error,
      [&](const ingest::Chunk& chunk, FactsChunk& out) {
        std::vector<zeek::X509Record> records;
        if (skip) {
          out.stats = zeek::parse_x509_records_tolerant(
              chunk.view(), x509_plan, records, &out.issues,
              x509_header_lines, chunk.offset);
        } else {
          zeek::LogParseError parse_error;
          if (!zeek::parse_x509_records(chunk.view(), x509_plan, records,
                                        &parse_error, x509_header_lines)) {
            engine_error.record(x509.name(), chunk.offset,
                                describe_parse_error(parse_error));
            return false;
          }
        }
        out.facts.reserve(records.size());
        for (const auto& record : records) {
          try {
            out.facts.push_back(enricher->make_facts(record));
          } catch (const std::exception& e) {
            // make_facts degrades hostile DER to the logged fields and
            // should never throw; this guard keeps any regression from
            // crossing the worker-thread boundary as std::terminate.
            engine_error.record(
                x509.name(), chunk.offset,
                std::string("exception while building certificate facts: ") +
                    e.what());
            return false;
          }
        }
        return true;
      },
      [&](FactsChunk&& r) {
        for (auto& f : r.facts) {
          const colfmt::Str fuid = f.fuid;
          base->emplace(fuid, std::move(f));
        }
        if (skip) {
          led->count_rows_ok(InputRole::kX509, r.stats.rows_ok);
          for (auto& issue : r.issues) {
            led->quarantine(
                LedgerPhase::kRegistry,
                {InputRole::kX509, issue.byte_offset,
                 issue.line == 0 ? 0 : issue.line + x509_lines_before,
                 issue.raw_length, std::move(issue.reason),
                 std::move(issue.digest)});
          }
        }
        x509_lines_before += r.stats.lines;
      });
  if (x509.truncation_detected()) {
    led->note_io(InputRole::kX509,
                 "file truncated while streaming; complete records salvaged "
                 "up to byte " +
                     std::to_string(x509.truncated_size()));
  }
  if (ok && skip) {
    if (auto violation = led->budget_violation(options.errors)) {
      engine_error.record(x509.name(), 0, *violation);
      ok = false;
    }
  }

  // --- Phase B (streaming): parse ssl chunks in parallel, apply chain
  // upgrades serially in stream order on the folding thread. Workers
  // parse only the columns upgrades read and forward only the chains
  // that can upgrade (UpgradeChains). This is the authoritative ssl pass:
  // skip-mode quarantine entries for ssl rows are recorded here and
  // nowhere else (phases C/D re-parse the same bytes tolerantly and only
  // bump per-phase counters); the manifest never changes which rows
  // parse. ---
  struct SslChunk {
    UpgradeChains chains;
    std::vector<zeek::RowIssue> issues;
    zeek::TolerantStats stats;
  };
  std::size_t ssl_lines_before = 0;
  ok = ok && stream_pass<SslChunk>(
                 ssl, ssl_layout, k, options, engine_error,
                 [&](const ingest::Chunk& chunk, SslChunk& out) {
                   // One record buffer per worker thread, reused across
                   // chunks.
                   thread_local std::vector<zeek::SslRecord> records;
                   records.clear();
                   if (skip) {
                     out.stats = zeek::parse_ssl_records_tolerant(
                         chunk.view(), ssl_plan, records, &out.issues,
                         ssl_header_lines, chunk.offset,
                         zeek::SslColumns::upgrades());
                   } else {
                     zeek::LogParseError parse_error;
                     if (!zeek::parse_ssl_records(
                             chunk.view(), ssl_plan, records, &parse_error,
                             ssl_header_lines,
                             zeek::SslColumns::upgrades())) {
                       // failed chunks fold as empty
                       engine_error.record(ssl.name(), chunk.offset,
                                           describe_parse_error(parse_error));
                       return false;
                     }
                   }
                   for (const auto& record : records) out.chains.add(record);
                   return true;
                 },
                 [&](SslChunk&& r) {
                   r.chains.apply(*base);
                   if (skip) {
                     led->count_rows_ok(InputRole::kSsl, r.stats.rows_ok);
                     for (auto& issue : r.issues) {
                       led->quarantine(
                           LedgerPhase::kUpgrades,
                           {InputRole::kSsl, issue.byte_offset,
                            issue.line == 0 ? 0
                                            : issue.line + ssl_lines_before,
                            issue.raw_length, std::move(issue.reason),
                            std::move(issue.digest)});
                     }
                   }
                   ssl_lines_before += r.stats.lines;
                 });
  if (ssl.truncation_detected()) {
    led->note_io(InputRole::kSsl,
                 "file truncated while streaming; complete records salvaged "
                 "up to byte " +
                     std::to_string(ssl.truncated_size()));
  }
  if (ok && skip) {
    if (auto violation = led->budget_violation(options.errors)) {
      engine_error.record(ssl.name(), 0, *violation);
      ok = false;
    }
  }

  // --- Phase C (streaming): chunk-local candidate maps, set-union fold
  // (order-independent), threshold once at the end. Re-streams ssl; the
  // registry is complete and read-only from here on. ---
  auto confirmed = std::make_shared<Pipeline::StrSet>();
  if (ok && config_.ct != nullptr) {
    struct CandidateChunk {
      CandidateMap candidates;
      std::size_t rows_bad = 0;
    };
    CandidateMap merged;
    ok = stream_pass<CandidateChunk>(
        ssl, ssl_layout, k, options, engine_error,
        [&](const ingest::Chunk& chunk, CandidateChunk& out) {
          std::vector<zeek::SslRecord> records;
          if (skip) {
            // Non-authoritative re-parse: tolerate the same rows phase B
            // quarantined (count only — no new ledger entries).
            const auto stats = zeek::parse_ssl_records_tolerant(
                chunk.view(), ssl_plan, records, nullptr, ssl_header_lines,
                chunk.offset, zeek::SslColumns::pipeline());
            out.rows_bad = stats.rows_bad;
          } else {
            zeek::LogParseError parse_error;
            if (!zeek::parse_ssl_records(chunk.view(), ssl_plan, records,
                                         &parse_error, ssl_header_lines,
                                         zeek::SslColumns::pipeline())) {
              engine_error.record(ssl.name(), chunk.offset,
                                  describe_parse_error(parse_error));
              return false;
            }
          }
          for (const auto& record : records) {
            note_interception_candidate(config_, *enricher, *base, record,
                                        out.candidates);
          }
          return true;
        },
        [&](CandidateChunk&& local) {
          for (auto& [issuer, domains] : local.candidates) {
            merged[issuer].insert(domains.begin(), domains.end());
          }
          if (skip) {
            led->count_phase(LedgerPhase::kInterception, local.rows_bad);
          }
        });
    *confirmed = confirm_issuers(merged, config_.interception_domain_threshold);
  }

  // --- Phase D (streaming): static record-aligned byte ranges, one
  // contiguous range per shard; each worker re-chunks its own range and
  // feeds its shard pipeline in order. Shard boundaries differ from the
  // in-memory row split, which is immaterial: the merge is shard-order
  // deterministic for ANY contiguous partition. ---
  std::optional<Pipeline> result;
  if (ok) {
    const Pipeline::Prepared prepared{enricher, base, confirmed};
    std::vector<Pipeline> shards = make_shards(prepared);
    const auto ranges =
        ingest::shard_record_ranges(ssl, ssl_layout.body_begin, ssl.size(), k);
    std::vector<std::uint64_t> shard_rows_bad(k, 0);
    parallel_ranges(
        k, k, [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            ingest::RecordChunker chunker(ssl, options.chunk_bytes,
                                          ranges[s].first, ranges[s].second);
            ingest::Chunk chunk;
            std::vector<zeek::SslRecord> records;  // capacity reused
            while (chunker.next(chunk)) {
              records.clear();
              if (skip) {
                // Non-authoritative re-parse: skip exactly the rows phase
                // B quarantined; per-shard counts merge deterministically
                // below.
                const auto stats = zeek::parse_ssl_records_tolerant(
                    chunk.view(), ssl_plan, records, nullptr,
                    ssl_header_lines, chunk.offset,
                    zeek::SslColumns::pipeline());
                shard_rows_bad[s] += stats.rows_bad;
              } else {
                zeek::LogParseError parse_error;
                if (!zeek::parse_ssl_records(chunk.view(), ssl_plan, records,
                                             &parse_error, ssl_header_lines,
                                             zeek::SslColumns::pipeline())) {
                  // Unreachable when phases B/C parsed the same bytes, but
                  // an input changing mid-run must not silently drop rows.
                  engine_error.record(ssl.name(), chunk.offset,
                                      describe_parse_error(parse_error));
                  return;
                }
              }
              Pipeline& pipeline = shards[s];
              for (const auto& record : records) {
                pipeline.add_connection(record);
              }
              ssl.release(chunk.offset, chunk.data.size());
            }
          }
        });
    if (skip) {
      for (const auto bad : shard_rows_bad) {
        led->count_phase(LedgerPhase::kShardRun, bad);
      }
    }

    if (!engine_error.failed()) {
      // --- Phase E: deterministic merge in shard order. ---
      Pipeline merged(prepared);
      for (auto& shard : shards) merged.merge(std::move(shard));
      merged.set_interception_issuers(*confirmed);
      merged.backfill_certificates(*base);
      merged.finalize();
      note_run_stats(*enricher, merged, "rows");
      result.emplace(std::move(merged));
    }
  }

  led->finalize();
  if (!result && error != nullptr) {
    const std::lock_guard<std::mutex> lock(engine_error.mutex);
    *error = engine_error.error;
  }
  return result;
}

std::optional<Pipeline> PipelineExecutor::run_log_files(
    const std::string& ssl_path, const std::string& x509_path,
    ingest::IngestError* error, const ingest::IngestOptions& options,
    ErrorLedger* ledger) {
  ingest::SourceOptions source_options;
  source_options.force_buffered = options.force_buffered;
  ingest::IngestError open_error;
  const auto ssl = ingest::open_source(ssl_path, &open_error, source_options);
  if (ssl == nullptr) {
    if (error != nullptr) *error = open_error;
    return std::nullopt;
  }
  const auto x509 =
      ingest::open_source(x509_path, &open_error, source_options);
  if (x509 == nullptr) {
    if (error != nullptr) *error = open_error;
    return std::nullopt;
  }
  return run_sources(*ssl, *x509, error, options, ledger);
}

namespace {

/// Decodes every block of the container into the record shapes the
/// in-memory entries take: the ssl stream concatenated in block order,
/// and the x509 rows folded into a first-fuid-wins map in stream order
/// (exactly what Dataset::add_x509 produces from the TSV parse).
/// Blocks decode in parallel — each carries its own dictionary — and a
/// decode failure reports the smallest-index failing block.
bool decode_container_records(const colfmt::ContainerReader& reader,
                              std::size_t k,
                              std::vector<zeek::SslRecord>& ssl,
                              zeek::Dataset::X509Map& x509,
                              ingest::IngestError* error) {
  std::mutex error_mutex;
  std::size_t error_block = SIZE_MAX;
  std::string error_reason;
  const auto note_error = [&](std::size_t block, const char* what) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (block < error_block) {
      error_block = block;
      error_reason = what;
    }
  };

  const auto& x509_blocks = reader.x509_blocks();
  const auto& ssl_blocks = reader.ssl_blocks();
  std::vector<std::vector<zeek::X509Record>> x509_rows(x509_blocks.size());
  std::vector<std::vector<zeek::SslRecord>> ssl_rows(ssl_blocks.size());
  const std::size_t total = x509_blocks.size() + ssl_blocks.size();
  parallel_ranges(total, k,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      try {
                        if (i < x509_blocks.size()) {
                          x509_rows[i] =
                              reader.decode_x509_block(x509_blocks[i]);
                        } else {
                          const std::size_t j = i - x509_blocks.size();
                          ssl_rows[j] = reader.decode_ssl_block(ssl_blocks[j]);
                        }
                      } catch (const StateError& e) {
                        note_error(i, e.what());
                      }
                    }
                  });
  if (error_block != SIZE_MAX) {
    if (error != nullptr) {
      error->file = reader.path();
      error->byte_offset = 0;
      error->reason = "container block decode failed: " + error_reason;
    }
    return false;
  }

  for (auto& rows : x509_rows) {
    for (auto& record : rows) {
      const colfmt::Str fuid = record.fuid;
      x509.emplace(fuid, std::move(record));
    }
  }
  std::size_t ssl_total = 0;
  for (const auto& rows : ssl_rows) ssl_total += rows.size();
  ssl.reserve(ssl_total);
  for (auto& rows : ssl_rows) {
    for (auto& record : rows) ssl.push_back(std::move(record));
  }
  return true;
}

}  // namespace

std::optional<Pipeline> PipelineExecutor::run_container(
    const colfmt::ContainerReader& reader, ingest::IngestError* error,
    const ingest::IngestOptions& options, ErrorLedger* ledger) {
  // Policy gate on the conversion-time ledger, mirroring what a TSV run
  // over the original logs would do with the same rows.
  ErrorLedger restored = reader.ledger();
  if (!restored.pristine()) {
    if (!options.errors.skip()) {
      // Abort mode fails on the first quarantined row of the
      // first-parsed input (x509 — phase A — before ssl), with the
      // row's original TSV coordinates.
      const QuarantinedRecord* first = nullptr;
      for (const auto& entry : restored.entries()) {
        if (entry.input == InputRole::kX509) {
          first = &entry;
          break;
        }
      }
      if (first == nullptr && !restored.entries().empty()) {
        first = &restored.entries().front();
      }
      if (error != nullptr) {
        if (first != nullptr) {
          error->file = first->input == InputRole::kX509
                            ? reader.meta().x509_path
                            : reader.meta().ssl_path;
          error->byte_offset = first->byte_offset;
          error->reason = first->reason;
        } else {
          error->file = reader.path();
          error->reason = "container records I/O degradation events";
        }
      }
      return std::nullopt;
    }
    if (const auto violation = restored.budget_violation(options.errors)) {
      if (error != nullptr) {
        error->file = reader.path();
        error->reason = *violation;
      }
      return std::nullopt;
    }
  }

  // Scan-mode dispatch: auto takes the columnar path whenever it is
  // eligible (no CT database — phase C needs full records); an explicit
  // kColumnar with CT configured falls back to rows rather than running
  // a different phase C.
  const bool columnar = config_.ct == nullptr &&
                        (scan_mode_ == ScanMode::kColumnar ||
                         scan_mode_ == ScanMode::kAuto);
  std::optional<Pipeline> result;
  if (columnar) {
    result = run_container_columnar(reader, error);
    if (!result) return std::nullopt;
  } else {
    std::vector<zeek::SslRecord> ssl;
    zeek::Dataset::X509Map x509;
    if (!decode_container_records(reader, threads_, ssl, x509, error)) {
      return std::nullopt;
    }
    result = run(ssl, x509);
  }
  if (ledger != nullptr) {
    // Hand out exactly the ledger a TSV run over the original logs would
    // have produced (shard state serializes every field, so map states
    // from compact and TSV inputs must match byte-for-byte). Abort mode
    // never accounts — run_sources only counts under skip — so a clean
    // abort run carries an empty ledger. Skip mode carries the
    // conversion counts (phases A/B: rows_ok + quarantine) plus the
    // re-parse tolerations phases C/D would have counted over the same
    // bad rows.
    ErrorLedger out;
    if (options.errors.skip()) {
      const std::uint64_t ssl_bad = restored.quarantined(InputRole::kSsl);
      out = std::move(restored);
      if (config_.ct != nullptr) {
        out.count_phase(LedgerPhase::kInterception, ssl_bad);
      }
      out.count_phase(LedgerPhase::kShardRun, ssl_bad);
    }
    out.finalize();
    *ledger = std::move(out);
  }
  return result;
}

std::optional<Pipeline> PipelineExecutor::run_container_columnar(
    const colfmt::ContainerReader& reader, ingest::IngestError* error) {
  const auto enricher = std::make_shared<const Enricher>(config_);
  const std::size_t k = threads_;
  const auto& x509_blocks = reader.x509_blocks();
  const auto& ssl_blocks = reader.ssl_blocks();

  // Smallest-index failing block wins, as in decode_container_records.
  std::mutex error_mutex;
  std::size_t error_block = SIZE_MAX;
  std::string error_reason;
  const auto note_error = [&](std::size_t block, const char* what) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (block < error_block) {
      error_block = block;
      error_reason = what;
    }
  };
  const auto failed = [&] {
    const std::lock_guard<std::mutex> lock(error_mutex);
    return error_block != SIZE_MAX;
  };

  // --- Phase A: x509 blocks decode + facts in parallel, then fold
  // first-fuid-wins in block (= stream) order. Certificates are the
  // deduplicated side of the join, so this side keeps the materializing
  // decoder; the Enricher's DER-keyed memo already collapses the work
  // per distinct certificate. ---
  auto base = std::make_shared<Pipeline::CertMap>();
  {
    std::vector<std::vector<CertFacts>> built(x509_blocks.size());
    parallel_ranges(
        x509_blocks.size(), k,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            try {
              const auto rows = reader.decode_x509_block(x509_blocks[i]);
              auto& out = built[i];
              out.reserve(rows.size());
              for (const auto& record : rows) {
                out.push_back(enricher->make_facts(record));
              }
            } catch (const std::exception& e) {
              note_error(i, e.what());
            }
          }
        });
    if (!failed()) {
      std::size_t total = 0;
      for (const auto& chunk : built) total += chunk.size();
      base->reserve(total);
      for (auto& chunk : built) {
        for (auto& facts : chunk) {
          const colfmt::Str fuid = facts.fuid;
          base->emplace(fuid, std::move(facts));
        }
      }
    }
  }

  // --- Phase B: serial column scan in stream order. Chain upgrades only
  // read the established flag and the chain fuids, so every other column
  // is pruned (kind-6 blocks skip the ts/uid spans in O(1)). ---
  if (!failed()) {
    zeek::SslRecord rec;
    for (std::size_t i = 0; i < ssl_blocks.size(); ++i) {
      try {
        auto scan = reader.scan_ssl_block(ssl_blocks[i],
                                          zeek::SslColumns::upgrades());
        while (!scan.done()) {
          scan.next(rec);
          apply_upgrades(*base, rec);
        }
      } catch (const StateError& e) {
        note_error(x509_blocks.size() + i, e.what());
        break;
      }
    }
  }

  // --- Phases D + E: contiguous block ranges, one per shard; each row
  // is served into ONE reused record (uid pruned and left empty — no
  // enrichment rule or analyzer reads it) and fed straight to the shard
  // pipeline, whose EnrichCache folds the per-row host/address work down
  // to pointer-keyed lookups. Block boundaries are a contiguous stream
  // partition, so the shard-order merge is byte-identical to the row
  // path for any thread count. ---
  std::optional<Pipeline> result;
  if (!failed()) {
    auto confirmed = std::make_shared<Pipeline::StrSet>();
    const Pipeline::Prepared prepared{enricher, base, confirmed};
    std::vector<Pipeline> shards = make_shards(prepared);
    parallel_ranges(
        ssl_blocks.size(), k,
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          Pipeline& pipeline = shards[shard];
          zeek::SslRecord rec;
          for (std::size_t i = begin; i < end; ++i) {
            try {
              auto scan = reader.scan_ssl_block(
                  ssl_blocks[i], zeek::SslColumns::pipeline());
              while (!scan.done()) {
                scan.next(rec);
                pipeline.add_connection(rec);
              }
            } catch (const StateError& e) {
              note_error(x509_blocks.size() + i, e.what());
              return;
            }
          }
        });
    if (!failed()) {
      Pipeline merged(prepared);
      for (auto& shard : shards) merged.merge(std::move(shard));
      merged.set_interception_issuers(*confirmed);
      merged.backfill_certificates(*base);
      merged.finalize();
      note_run_stats(*enricher, merged, "columnar");
      result.emplace(std::move(merged));
    }
  }

  if (!result && error != nullptr) {
    error->file = reader.path();
    error->byte_offset = 0;
    error->reason = "container block decode failed: " + error_reason;
  }
  return result;
}

std::optional<Pipeline> PipelineExecutor::run_logs(
    const std::string& ssl_text, const std::string& x509_text,
    zeek::LogParseError* error, const ingest::IngestOptions& options,
    ErrorLedger* ledger) {
  const ingest::MemorySource ssl(ssl_text, "<ssl log text>");
  const ingest::MemorySource x509(x509_text, "<x509 log text>");
  ingest::IngestError ingest_error;
  auto result = run_sources(ssl, x509, &ingest_error, options, ledger);
  if (!result && error != nullptr) {
    error->line = 0;
    error->message = ingest_error.to_string();
  }
  return result;
}

}  // namespace mtlscope::core
